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
let state_member a = Printf.sprintf "state_%s" (sanitize a.Sdf.actor_name)
let snapshot_var a = Printf.sprintf "snap_%s" (sanitize a.Sdf.actor_name)

let generate ?(rounds = 10) (m : Model.t) =
  let sdf = Sdf.of_model m in
  let order = Exec.firing_order sdf in
  let actor name = Option.get (Sdf.find_actor sdf name) in
  let counter = ref 0 in
  let fifos =
    sdf.Sdf.edges
    |> List.filter_map (fun (e : Sdf.edge) ->
           if owner_of (actor e.Sdf.edge_src) = owner_of (actor e.Sdf.edge_dst) then None
           else (
             incr counter;
             let protocol =
               if List.mem "GFIFO" (List.map snd e.Sdf.edge_channels) then "GFIFO"
               else "SWFIFO"
             in
             Some (Printf.sprintf "f%d" !counter, protocol, e)))
  in
  let fifo_for e =
    List.find_opt (fun (_, _, fe) -> fe = e) fifos |> Option.map (fun (v, _, _) -> v)
  in
  let workers =
    List.filter_map
      (fun name ->
        match owner_of (actor name) with Worker (c, t) -> Some (c, t) | Env -> None)
      order
    |> List.fold_left (fun acc o -> if List.mem o acc then acc else o :: acc) []
    |> List.rev
  in
  let t = M2t.create () in
  M2t.line t "// Generated SystemC platform for CAAM model %s." m.Model.model_name;
  M2t.line t "// One SC_MODULE per Thread-SS; sc_fifo channels carry the";
  M2t.line t "// protocols chosen by channel inference (SWFIFO intra-CPU,";
  M2t.line t "// GFIFO inter-CPU over the bus).";
  M2t.line t "#include <systemc.h>";
  M2t.line t "#include <cmath>";
  M2t.blank t;
  M2t.line t "static const int ROUNDS = %d;" rounds;
  M2t.blank t;
  (* Default S-function behaviours, constants in lockstep with the
     reference simulator. *)
  let sfuncs =
    sdf.Sdf.actors
    |> List.filter_map (fun (a : Sdf.actor) ->
           if a.Sdf.actor_block.S.blk_type = B.S_function then
             Some
               (Option.value
                  (S.param_string a.Sdf.actor_block "FunctionName")
                  ~default:a.Sdf.actor_block.S.blk_name)
           else None)
    |> List.sort_uniq compare
  in
  List.iter
    (fun name ->
      let h = Hashtbl.hash name in
      let ca = 0.25 +. (float_of_int (h mod 7) /. 8.0) in
      let cb = float_of_int (h mod 13) /. 13.0 in
      M2t.line t "static double sfun_%s(const double *in, int n_in, int port) {"
        (sanitize name);
      M2t.indented t (fun () ->
          M2t.line t "double total = 0.0;";
          M2t.line t "for (int i = 0; i < n_in; ++i) total += in[i];";
          M2t.line t "return %.17g * total + %.17g + 0.1 * port;" ca cb);
      M2t.line t "}")
    sfuncs;
  M2t.blank t;
  (* One module per worker thread. *)
  let emit_worker (cpu, thread) =
    let mine = List.filter (fun n -> owner_of (actor n) = Worker (cpu, thread)) order in
    let module_name = Printf.sprintf "Thread_%s_%s" (sanitize cpu) (sanitize thread) in
    let my_fifo_ports =
      fifos
      |> List.filter_map (fun (v, _, (e : Sdf.edge)) ->
             let src_owner = owner_of (actor e.Sdf.edge_src) in
             let dst_owner = owner_of (actor e.Sdf.edge_dst) in
             if src_owner = Worker (cpu, thread) then Some (v, `Out)
             else if dst_owner = Worker (cpu, thread) then Some (v, `In)
             else None)
    in
    M2t.line t "SC_MODULE(%s) {" module_name;
    M2t.indented t (fun () ->
        List.iter
          (fun (v, dir) ->
            match dir with
            | `In -> M2t.line t "sc_fifo_in<double> %s;" v
            | `Out -> M2t.line t "sc_fifo_out<double> %s;" v)
          my_fifo_ports;
        List.iter
          (fun name ->
            let a = actor name in
            if is_delay a then
              M2t.line t "double %s = %.17g;" (state_member a)
                (param_float a.Sdf.actor_block "InitialCondition" 0.0))
          mine;
        M2t.blank t;
        M2t.line t "void behaviour() {";
        M2t.indented t (fun () ->
            M2t.line t "for (int round = 0; round < ROUNDS; ++round) {";
            M2t.indented t (fun () ->
                (* Phase 0: push delay snapshots. *)
                List.iter
                  (fun name ->
                    let a = actor name in
                    if is_delay a then (
                      M2t.line t "double %s = %s;" (snapshot_var a) (state_member a);
                      Sdf.succs sdf a.Sdf.actor_name
                      |> List.iter (fun e ->
                             match fifo_for e with
                             | Some v -> M2t.line t "%s.write(%s);" v (snapshot_var a)
                             | None -> ())))
                  mine;
                (* Actors in firing order. *)
                List.iter
                  (fun name ->
                    let a = actor name in
                    let blk = a.Sdf.actor_block in
                    let popped =
                      Sdf.preds sdf a.Sdf.actor_name
                      |> List.filter_map (fun (e : Sdf.edge) ->
                             match fifo_for e with
                             | Some v ->
                                 let tmp =
                                   Printf.sprintf "p_%s_%d" (sanitize a.Sdf.actor_name)
                                     e.Sdf.edge_dst_port
                                 in
                                 M2t.line t "double %s = %s.read();" tmp v;
                                 Some (v, tmp)
                             | None -> None)
                    in
                    let input port =
                      let feeding =
                        Sdf.preds sdf a.Sdf.actor_name
                        |> List.find_opt (fun (e : Sdf.edge) -> e.Sdf.edge_dst_port = port)
                      in
                      match feeding with
                      | None -> "0.0"
                      | Some e -> (
                          match fifo_for e with
                          | Some v -> (
                              match List.assoc_opt v popped with
                              | Some tmp -> tmp
                              | None -> v ^ ".read()")
                          | None ->
                              let src = actor e.Sdf.edge_src in
                              if is_delay src then snapshot_var src
                              else out_var src e.Sdf.edge_src_port)
                    in
                    let simple expr = M2t.line t "double %s = %s;" (out_var a 1) expr in
                    (match blk.S.blk_type with
                    | B.Constant -> simple (Printf.sprintf "%.17g" (param_float blk "Value" 0.0))
                    | B.Ground -> simple "0.0"
                    | B.Gain ->
                        simple
                          (Printf.sprintf "%.17g * (%s)" (param_float blk "Gain" 1.0) (input 1))
                    | B.Product ->
                        simple
                          (if a.Sdf.actor_inputs = 0 then "1.0"
                          else
                            String.concat " * "
                              (List.init a.Sdf.actor_inputs (fun i ->
                                   "(" ^ input (i + 1) ^ ")")))
                    | B.Sum ->
                        let signs =
                          match S.param_string blk "Inputs" with
                          | Some s when String.length s = a.Sdf.actor_inputs ->
                              List.init a.Sdf.actor_inputs (fun i -> s.[i])
                          | Some _ | None -> List.init a.Sdf.actor_inputs (fun _ -> '+')
                        in
                        simple
                          ("0.0 "
                          ^ String.concat " "
                              (List.mapi
                                 (fun i sign ->
                                   Printf.sprintf "%c (%s)"
                                     (if sign = '-' then '-' else '+')
                                     (input (i + 1)))
                                 signs))
                    | B.Saturation ->
                        simple
                          (Printf.sprintf "std::fmin(%.17g, std::fmax(%.17g, %s))"
                             (param_float blk "UpperLimit" 1.0)
                             (param_float blk "LowerLimit" (-1.0))
                             (input 1))
                    | B.Switch ->
                        simple
                          (Printf.sprintf "(%s) >= %.17g ? (%s) : (%s)" (input 2)
                             (param_float blk "Threshold" 0.0)
                             (input 1) (input 3))
                    | B.Abs -> simple (Printf.sprintf "std::fabs(%s)" (input 1))
                    | B.Sqrt -> simple (Printf.sprintf "std::sqrt(%s)" (input 1))
                    | B.Trig ->
                        let fn =
                          match S.param_string blk "Function" with
                          | Some ("cos" | "tan") as f -> Option.get f
                          | Some _ | None -> "sin"
                        in
                        simple (Printf.sprintf "std::%s(%s)" fn (input 1))
                    | B.Min_max ->
                        let fn =
                          if S.param_string blk "Function" = Some "min" then "std::fmin"
                          else "std::fmax"
                        in
                        let rec fold i acc =
                          if i > a.Sdf.actor_inputs then acc
                          else fold (i + 1) (Printf.sprintf "%s(%s, %s)" fn acc (input i))
                        in
                        simple (if a.Sdf.actor_inputs = 0 then "0.0" else fold 2 (input 1))
                    | B.Math ->
                        let fn =
                          if S.param_string blk "Function" = Some "log" then "std::log"
                          else "std::exp"
                        in
                        simple (Printf.sprintf "%s(%s)" fn (input 1))
                    | B.Mux -> simple (input 1)
                    | B.Demux ->
                        for p = 1 to a.Sdf.actor_outputs do
                          M2t.line t "double %s = %s;" (out_var a p) (input 1)
                        done
                    | B.Terminator -> M2t.line t "(void)(%s);" (input 1)
                    | B.Unit_delay -> M2t.line t "%s = %s;" (state_member a) (input 1)
                    | B.S_function ->
                        let fn =
                          Option.value (S.param_string blk "FunctionName")
                            ~default:blk.S.blk_name
                        in
                        M2t.line t "double in_%s[%d];" (sanitize a.Sdf.actor_name)
                          (max a.Sdf.actor_inputs 1);
                        List.iteri
                          (fun i _ ->
                            M2t.line t "in_%s[%d] = %s;" (sanitize a.Sdf.actor_name) i
                              (input (i + 1)))
                          (List.init a.Sdf.actor_inputs (fun i -> i));
                        for p = 1 to a.Sdf.actor_outputs do
                          M2t.line t "double %s = sfun_%s(in_%s, %d, %d);" (out_var a p)
                            (sanitize fn) (sanitize a.Sdf.actor_name) a.Sdf.actor_inputs
                            (p - 1)
                        done
                    | B.Inport | B.Outport | B.Subsystem | B.Channel ->
                        invalid_arg "gen_systemc: structural block in a thread body");
                    if not (is_delay a) then
                      Sdf.succs sdf a.Sdf.actor_name
                      |> List.iter (fun e ->
                             match fifo_for e with
                             | Some v ->
                                 M2t.line t "%s.write(%s);" v (out_var a e.Sdf.edge_src_port)
                             | None -> ()))
                  mine);
            M2t.line t "}");
        M2t.line t "}";
        M2t.blank t;
        M2t.line t "SC_CTOR(%s) { SC_THREAD(behaviour); }" module_name);
    M2t.line t "};";
    M2t.blank t
  in
  List.iter emit_worker workers;
  (* Environment module: feeds top-level inports, drains outports. *)
  let env_inputs =
    List.filter
      (fun n ->
        (actor n).Sdf.actor_block.S.blk_type = B.Inport && (actor n).Sdf.actor_path = [])
      order
  in
  let env_ports =
    fifos
    |> List.filter_map (fun (v, _, (e : Sdf.edge)) ->
           let src = actor e.Sdf.edge_src and dst = actor e.Sdf.edge_dst in
           if owner_of src = Env then Some (v, `Out)
           else if owner_of dst = Env then Some (v, `In)
           else None)
  in
  M2t.line t "SC_MODULE(Environment) {";
  M2t.indented t (fun () ->
      List.iter
        (fun (v, dir) ->
          match dir with
          | `In -> M2t.line t "sc_fifo_in<double> %s;" v
          | `Out -> M2t.line t "sc_fifo_out<double> %s;" v)
        env_ports;
      M2t.line t "void behaviour() {";
      M2t.indented t (fun () ->
          M2t.line t "for (int round = 0; round < ROUNDS; ++round) {";
          M2t.indented t (fun () ->
              List.iter
                (fun name ->
                  let a = actor name in
                  let h = Hashtbl.hash a.Sdf.actor_name mod 10 in
                  M2t.line t "double %s = std::sin((round + %d.0) / 5.0);" (out_var a 1) h;
                  Sdf.succs sdf a.Sdf.actor_name
                  |> List.iter (fun e ->
                         match fifo_for e with
                         | Some v -> M2t.line t "%s.write(%s);" v (out_var a 1)
                         | None -> ()))
                env_inputs;
              List.iter
                (fun name ->
                  let a = actor name in
                  match Sdf.preds sdf a.Sdf.actor_name with
                  | e :: _ -> (
                      match fifo_for e with
                      | Some v ->
                          M2t.line t
                            "std::printf(\"%s %%d %%.9f\\n\", round, %s.read());"
                            (sanitize a.Sdf.actor_name) v
                      | None -> ())
                  | [] -> ())
                sdf.Sdf.graph_outputs);
          M2t.line t "}";
          M2t.line t "sc_stop();");
      M2t.line t "}";
      M2t.blank t;
      M2t.line t "SC_CTOR(Environment) { SC_THREAD(behaviour); }");
  M2t.line t "};";
  M2t.blank t;
  (* Top level. *)
  M2t.line t "int sc_main(int, char **) {";
  M2t.indented t (fun () ->
      List.iter
        (fun (v, protocol, (e : Sdf.edge)) ->
          M2t.line t "sc_fifo<double> %s(64); // %s: %s -> %s" v protocol e.Sdf.edge_src
            e.Sdf.edge_dst)
        fifos;
      List.iter
        (fun (cpu, thread) ->
          let module_name = Printf.sprintf "Thread_%s_%s" (sanitize cpu) (sanitize thread) in
          let inst = Printf.sprintf "i_%s_%s" (sanitize cpu) (sanitize thread) in
          M2t.line t "%s %s(\"%s\");" module_name inst inst;
          fifos
          |> List.iter (fun (v, _, (e : Sdf.edge)) ->
                 let src_owner = owner_of (actor e.Sdf.edge_src) in
                 let dst_owner = owner_of (actor e.Sdf.edge_dst) in
                 if src_owner = Worker (cpu, thread) || dst_owner = Worker (cpu, thread)
                 then M2t.line t "%s.%s(%s);" inst v v))
        workers;
      M2t.line t "Environment env(\"env\");";
      List.iter (fun (v, _) -> M2t.line t "env.%s(%s);" v v) env_ports;
      M2t.line t "sc_start();";
      M2t.line t "return 0;");
  M2t.line t "}";
  M2t.contents t
