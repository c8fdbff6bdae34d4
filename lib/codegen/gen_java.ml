module S = Umlfront_simulink.System
module B = Umlfront_simulink.Block
module Model = Umlfront_simulink.Model
module Sdf = Umlfront_dataflow.Sdf
module Exec = Umlfront_dataflow.Exec
module M2t = Umlfront_transform.M2t

let sanitize = Gen_threads.sanitize

type owner = Env | Worker of string * string

let owner_of (a : Sdf.actor) =
  match a.Sdf.actor_path with
  | [] -> Env
  | [ cpu ] -> Worker (cpu, "main")
  | cpu :: thread :: _ -> Worker (cpu, thread)

let is_delay (a : Sdf.actor) = a.Sdf.actor_block.S.blk_type = B.Unit_delay

let param_float (blk : S.block) key fallback =
  match List.assoc_opt key blk.S.blk_params with
  | Some (B.P_float f) -> f
  | Some (B.P_int i) -> float_of_int i
  | Some _ | None -> fallback

let out_var a port = Printf.sprintf "v_%s_%d" (sanitize a.Sdf.actor_name) port
let state_var a = Printf.sprintf "state_%s" (sanitize a.Sdf.actor_name)
let snapshot_var a = Printf.sprintf "snap_%s" (sanitize a.Sdf.actor_name)

let generate ?(rounds = 10) ?(class_name = "GeneratedModel") (m : Model.t) =
  let sdf = Sdf.of_model m in
  let order = Exec.firing_order sdf in
  let actor name = Option.get (Sdf.find_actor sdf name) in
  (* Cross-thread edges get queues. *)
  let counter = ref 0 in
  let queues =
    sdf.Sdf.edges
    |> List.filter_map (fun (e : Sdf.edge) ->
           let src = actor e.Sdf.edge_src and dst = actor e.Sdf.edge_dst in
           if owner_of src = owner_of dst then None
           else (
             incr counter;
             let protocol =
               let ps = List.map snd e.Sdf.edge_channels in
               if List.mem "GFIFO" ps then "GFIFO"
               else "SWFIFO"
             in
             Some (Printf.sprintf "f%d" !counter, protocol, e)))
  in
  let queue_for e =
    List.find_opt (fun (_, _, qe) -> qe = e) queues |> Option.map (fun (v, _, _) -> v)
  in
  let t = M2t.create ~indent_step:2 () in
  M2t.line t "/* Generated from CAAM model %s. */" m.Model.model_name;
  M2t.line t "import java.util.concurrent.ArrayBlockingQueue;";
  M2t.blank t;
  M2t.line t "public final class %s {" class_name;
  M2t.indented t (fun () ->
      M2t.line t "static final int ROUNDS = %d;" rounds;
      List.iter
        (fun (v, protocol, (e : Sdf.edge)) ->
          M2t.line t
            "static final ArrayBlockingQueue<Double> %s = new ArrayBlockingQueue<>(64); // %s: %s -> %s"
            v protocol e.Sdf.edge_src e.Sdf.edge_dst)
        queues;
      List.iter
        (fun (a : Sdf.actor) ->
          if is_delay a then
            M2t.line t "static double %s = %.17g;" (state_var a)
              (param_float a.Sdf.actor_block "InitialCondition" 0.0))
        sdf.Sdf.actors;
      M2t.blank t;
      M2t.line t "static double sfun(String name, double a, double b, double[] in) {";
      M2t.indented t (fun () ->
          M2t.line t "double total = 0.0;";
          M2t.line t "for (double x : in) total += x;";
          M2t.line t "return a * total + b;");
      M2t.line t "}";
      (* Worker methods. *)
      let workers =
        List.filter_map
          (fun name ->
            match owner_of (actor name) with Worker (c, th) -> Some (c, th) | Env -> None)
          order
        |> List.fold_left (fun acc o -> if List.mem o acc then acc else o :: acc) []
        |> List.rev
      in
      let input_expr popped (a : Sdf.actor) port =
        let feeding =
          Sdf.preds sdf a.Sdf.actor_name
          |> List.find_opt (fun (e : Sdf.edge) -> e.Sdf.edge_dst_port = port)
        in
        match feeding with
        | None -> "0.0"
        | Some e -> (
            match queue_for e with
            | Some q -> (
                match List.assoc_opt q popped with Some tmp -> tmp | None -> q ^ ".take()")
            | None ->
                let src = actor e.Sdf.edge_src in
                if is_delay src then snapshot_var src else out_var src e.Sdf.edge_src_port)
      in
      let emit_actor (a : Sdf.actor) =
        let blk = a.Sdf.actor_block in
        let popped =
          Sdf.preds sdf a.Sdf.actor_name
          |> List.filter_map (fun (e : Sdf.edge) ->
                 match queue_for e with
                 | Some q ->
                     let tmp =
                       Printf.sprintf "p_%s_%d" (sanitize a.Sdf.actor_name)
                         e.Sdf.edge_dst_port
                     in
                     M2t.line t "double %s = %s.take();" tmp q;
                     Some (q, tmp)
                 | None -> None)
        in
        let input port = input_expr popped a port in
        let simple_out expr = M2t.line t "double %s = %s;" (out_var a 1) expr in
        (match blk.S.blk_type with
        | B.Constant -> simple_out (Printf.sprintf "%.17g" (param_float blk "Value" 0.0))
        | B.Ground -> simple_out "0.0"
        | B.Gain ->
            simple_out (Printf.sprintf "%.17g * %s" (param_float blk "Gain" 1.0) (input 1))
        | B.Product ->
            if a.Sdf.actor_inputs = 0 then simple_out "1.0"
            else
              simple_out
                (String.concat " * "
                   (List.init a.Sdf.actor_inputs (fun i -> input (i + 1))))
        | B.Sum ->
            let signs =
              match S.param_string blk "Inputs" with
              | Some s when String.length s = a.Sdf.actor_inputs ->
                  List.init a.Sdf.actor_inputs (fun i -> s.[i])
              | Some _ | None -> List.init a.Sdf.actor_inputs (fun _ -> '+')
            in
            let terms =
              List.mapi
                (fun i sign ->
                  Printf.sprintf "%c (%s)" (if sign = '-' then '-' else '+')
                    (input (i + 1)))
                signs
            in
            simple_out (if terms = [] then "0.0" else "0.0 " ^ String.concat " " terms)
        | B.Saturation ->
            let hi = param_float blk "UpperLimit" 1.0 in
            let lo = param_float blk "LowerLimit" (-1.0) in
            simple_out
              (Printf.sprintf "Math.min(%.17g, Math.max(%.17g, %s))" hi lo (input 1))
        | B.Switch ->
            let threshold = param_float blk "Threshold" 0.0 in
            simple_out
              (Printf.sprintf "(%s) >= %.17g ? (%s) : (%s)" (input 2) threshold (input 1)
                 (input 3))
        | B.Abs -> simple_out (Printf.sprintf "Math.abs(%s)" (input 1))
        | B.Sqrt -> simple_out (Printf.sprintf "Math.sqrt(%s)" (input 1))
        | B.Trig ->
            let fn =
              match S.param_string blk "Function" with
              | Some ("cos" | "tan") as f -> Option.get f
              | Some _ | None -> "sin"
            in
            simple_out (Printf.sprintf "Math.%s(%s)" fn (input 1))
        | B.Min_max ->
            let fn =
              if S.param_string blk "Function" = Some "min" then "Math.min" else "Math.max"
            in
            let rec fold i acc =
              if i > a.Sdf.actor_inputs then acc
              else fold (i + 1) (Printf.sprintf "%s(%s, %s)" fn acc (input i))
            in
            simple_out (if a.Sdf.actor_inputs = 0 then "0.0" else fold 2 (input 1))
        | B.Math ->
            let fn = if S.param_string blk "Function" = Some "log" then "Math.log" else "Math.exp" in
            simple_out (Printf.sprintf "%s(%s)" fn (input 1))
        | B.Mux -> simple_out (input 1)
        | B.Demux ->
            for p = 1 to a.Sdf.actor_outputs do
              M2t.line t "double %s = %s;" (out_var a p) (input 1)
            done
        | B.Terminator -> M2t.line t "double unused_%s = %s;" (sanitize a.Sdf.actor_name) (input 1)
        | B.Unit_delay -> M2t.line t "%s = %s;" (state_var a) (input 1)
        | B.S_function ->
            let fn =
              Option.value (S.param_string blk "FunctionName") ~default:blk.S.blk_name
            in
            let ca, cb =
              let h = Hashtbl.hash fn in
              (0.25 +. (float_of_int (h mod 7) /. 8.0), float_of_int (h mod 13) /. 13.0)
            in
            let args =
              String.concat ", " (List.init a.Sdf.actor_inputs (fun i -> input (i + 1)))
            in
            for p = 1 to a.Sdf.actor_outputs do
              M2t.line t "double %s = sfun(\"%s\", %.17g, %.17g, new double[]{%s}) + 0.1 * %d;"
                (out_var a p) fn ca cb args (p - 1)
            done
        | B.Inport | B.Outport | B.Subsystem | B.Channel ->
            invalid_arg "gen_java: structural block in a thread body");
        if not (is_delay a) then
          Sdf.succs sdf a.Sdf.actor_name
          |> List.iter (fun (e : Sdf.edge) ->
                 match queue_for e with
                 | Some q -> M2t.line t "%s.put(%s);" q (out_var a e.Sdf.edge_src_port)
                 | None -> ())
      in
      List.iter
        (fun (cpu, thread) ->
          let mine =
            List.filter (fun name -> owner_of (actor name) = Worker (cpu, thread)) order
          in
          M2t.blank t;
          M2t.line t "static void run_%s_%s() throws InterruptedException {" (sanitize cpu)
            (sanitize thread);
          M2t.indented t (fun () ->
              M2t.line t "for (int round = 0; round < ROUNDS; ++round) {";
              M2t.indented t (fun () ->
                  List.iter
                    (fun name ->
                      let a = actor name in
                      if is_delay a then (
                        M2t.line t "double %s = %s;" (snapshot_var a) (state_var a);
                        Sdf.succs sdf a.Sdf.actor_name
                        |> List.iter (fun (e : Sdf.edge) ->
                               match queue_for e with
                               | Some q -> M2t.line t "%s.put(%s);" q (snapshot_var a)
                               | None -> ())))
                    mine;
                  List.iter (fun name -> emit_actor (actor name)) mine);
              M2t.line t "}");
          M2t.line t "}")
        workers;
      (* main *)
      let env_inputs =
        List.filter
          (fun name ->
            (actor name).Sdf.actor_block.S.blk_type = B.Inport
            && (actor name).Sdf.actor_path = [])
          order
      in
      M2t.blank t;
      M2t.line t "public static void main(String[] args) throws InterruptedException {";
      M2t.indented t (fun () ->
          M2t.line t "Thread[] workers = new Thread[%d];" (List.length workers);
          List.iteri
            (fun i (cpu, thread) ->
              M2t.line t
                "workers[%d] = new Thread(() -> { try { run_%s_%s(); } catch (InterruptedException e) { Thread.currentThread().interrupt(); } });"
                i (sanitize cpu) (sanitize thread))
            workers;
          M2t.line t "for (Thread w : workers) w.start();";
          M2t.line t "for (int round = 0; round < ROUNDS; ++round) {";
          M2t.indented t (fun () ->
              List.iter
                (fun name ->
                  let a = actor name in
                  let h = Hashtbl.hash a.Sdf.actor_name mod 10 in
                  M2t.line t "double %s = Math.sin((round + %d.0) / 5.0);" (out_var a 1) h;
                  Sdf.succs sdf a.Sdf.actor_name
                  |> List.iter (fun (e : Sdf.edge) ->
                         match queue_for e with
                         | Some q -> M2t.line t "%s.put(%s);" q (out_var a 1)
                         | None -> ()))
                env_inputs;
              List.iter
                (fun name ->
                  let a = actor name in
                  let expr =
                    match Sdf.preds sdf a.Sdf.actor_name with
                    | e :: _ -> (
                        match queue_for e with
                        | Some q -> q ^ ".take()"
                        | None -> "0.0")
                    | [] -> "0.0"
                  in
                  M2t.line t "System.out.printf(\"%s %%d %%.9f%%n\", round, %s);"
                    (sanitize a.Sdf.actor_name) expr)
                sdf.Sdf.graph_outputs);
          M2t.line t "}";
          M2t.line t "for (Thread w : workers) w.join();");
      M2t.line t "}");
  M2t.line t "}";
  M2t.contents t
