(* The one multithreaded emitter behind Gen_threads (C), Gen_java and
   Gen_systemc.  It builds the thread program of a CAAM once — firing
   order, owning workers, cross-thread queues and collision-free
   identifiers — and emits each worker's round and the environment's
   round; a dialect supplies the language's syntax, and each generator
   wraps the rounds in its own file frame. *)

module S = Umlfront_simulink.System
module B = Umlfront_simulink.Block
module Model = Umlfront_simulink.Model
module Sdf = Umlfront_dataflow.Sdf
module Exec = Umlfront_dataflow.Exec
module M2t = Umlfront_transform.M2t

(* Functional actors live under cpu/thread; top-level ports belong to
   the environment. *)
type owner = Env | Worker of string * string

let owner_of (a : Sdf.actor) =
  match a.Sdf.actor_path with
  | [] -> Env
  | [ cpu ] -> Worker (cpu, "main")
  | cpu :: thread :: _ -> Worker (cpu, thread)

(* One queue per dataflow edge that crosses an owner boundary. *)
type fifo = { var : string; protocol : string; edge : Sdf.edge; src : owner; dst : owner }

type worker = { cpu : string; thread : string; id : string; actors : Sdf.actor list }

type program = {
  model : Model.t;
  sdf : Sdf.t;
  fifos : fifo list;
  workers : worker list;  (** in order of their first firing *)
  env_inputs : Sdf.actor list;  (** top-level Inports, in firing order *)
  ident : string -> string;  (** actor name -> identifier *)
  sfn : string -> string;  (** S-Function name -> identifier *)
}

let is_delay (a : Sdf.actor) = a.Sdf.actor_block.S.blk_type = B.Unit_delay

let sfunction_name (blk : S.block) =
  Option.value (S.param_string blk "FunctionName") ~default:blk.S.blk_name

let sfunctions p =
  List.filter_map
    (fun (a : Sdf.actor) ->
      if a.Sdf.actor_block.S.blk_type = B.S_function then
        Some (sfunction_name a.Sdf.actor_block)
      else None)
    p.sdf.Sdf.actors
  |> List.sort_uniq String.compare

let program (m : Model.t) =
  let sdf = Sdf.of_model m in
  let actor name = Option.get (Sdf.find_actor sdf name) in
  let order = List.map actor (Exec.firing_order sdf) in
  let fifos =
    List.filter_map
      (fun (e : Sdf.edge) ->
        let src = owner_of (actor e.Sdf.edge_src) and dst = owner_of (actor e.Sdf.edge_dst) in
        if src = dst then None
        else
          let protocol =
            if List.mem "GFIFO" (List.map snd e.Sdf.edge_channels) then "GFIFO" else "SWFIFO"
          in
          Some (protocol, e, src, dst))
      sdf.Sdf.edges
    |> List.mapi (fun i (protocol, edge, src, dst) ->
           { var = Printf.sprintf "f%d" (i + 1); protocol; edge; src; dst })
  in
  (* Worker identifiers have their own namespace: run_<cpu>_<thread>. *)
  let worker_id = M2t.make_namer M2t.sanitize in
  let workers =
    List.filter_map
      (fun a -> match owner_of a with Worker (c, th) -> Some (c, th) | Env -> None)
      order
    |> List.fold_left (fun acc o -> if List.mem o acc then acc else o :: acc) []
    |> List.rev_map (fun (cpu, thread) ->
           {
             cpu;
             thread;
             id = worker_id (cpu ^ "/" ^ thread);
             actors = List.filter (fun a -> owner_of a = Worker (cpu, thread)) order;
           })
  in
  let env_inputs =
    List.filter
      (fun (a : Sdf.actor) -> a.Sdf.actor_block.S.blk_type = B.Inport && a.Sdf.actor_path = [])
      order
  in
  let p =
    {
      model = m;
      sdf;
      fifos;
      workers;
      env_inputs;
      ident = M2t.make_namer M2t.sanitize;
      sfn = M2t.make_namer M2t.sanitize;
    }
  in
  (* Claim every identifier up front, so all three dialects name the
     same actor the same way whatever order they emit in. *)
  List.iter (fun (a : Sdf.actor) -> ignore (p.ident a.Sdf.actor_name)) sdf.Sdf.actors;
  List.iter (fun name -> ignore (p.sfn name)) (sfunctions p);
  p

let actor p name = Option.get (Sdf.find_actor p.sdf name)
let out_var p (a : Sdf.actor) port = Printf.sprintf "v_%s_%d" (p.ident a.Sdf.actor_name) port
let state_var p (a : Sdf.actor) = "state_" ^ p.ident a.Sdf.actor_name
let snapshot_var p (a : Sdf.actor) = "snap_" ^ p.ident a.Sdf.actor_name
let initial_condition (a : Sdf.actor) = Exec.param_float a.Sdf.actor_block "InitialCondition" 0.0
let delays p = List.filter is_delay p.sdf.Sdf.actors

(* What differs per language.  Statements come back with their
   terminating semicolon. *)
type dialect = {
  pop : string -> string;  (** queue -> expression *)
  push : string -> string -> string;  (** queue, value -> statement *)
  math : string -> string;  (** C math function name -> this language's *)
  operand : string -> string;  (** how a Gain or Product operand is written *)
  min_max : (string * string) option;
      (** library min and max that propagate NaN like [Float.min]/[Float.max];
          without them, Saturation is a ternary and MinMax tests for NaN *)
  discard : string -> string -> string;  (** Terminator: identifier, value -> statement *)
  sfunction : M2t.t -> program -> Sdf.actor -> string list -> unit;
      (** emit an S-Function firing: its output variables from its inputs *)
  print : string -> string -> string;  (** label, value -> statement printing one sample *)
}

let fifo_for p e = List.find_opt (fun f -> f.edge = e) p.fifos

let push_outputs t d p (a : Sdf.actor) value =
  List.iter
    (fun (e : Sdf.edge) ->
      match fifo_for p e with
      | Some f -> M2t.line t "%s" (d.push f.var (value e))
      | None -> ())
    (Sdf.succs p.sdf a.Sdf.actor_name)

(* The block table: one firing of [a] inside its worker's round. *)
let emit_actor t d p (a : Sdf.actor) =
  let blk = a.Sdf.actor_block in
  let preds = Sdf.preds p.sdf a.Sdf.actor_name in
  (* Pop every cross-thread input exactly once, in edge order. *)
  let popped =
    List.filter_map
      (fun (e : Sdf.edge) ->
        Option.map
          (fun f ->
            let tmp = Printf.sprintf "p_%s_%d" (p.ident a.Sdf.actor_name) e.Sdf.edge_dst_port in
            M2t.line t "double %s = %s;" tmp (d.pop f.var);
            (e, tmp))
          (fifo_for p e))
      preds
  in
  let input port =
    match List.find_opt (fun (e : Sdf.edge) -> e.Sdf.edge_dst_port = port) preds with
    | None -> "0.0"
    | Some e -> (
        match List.assq_opt e popped with
        | Some tmp -> tmp
        | None ->
            let src = actor p e.Sdf.edge_src in
            if is_delay src then snapshot_var p src else out_var p src e.Sdf.edge_src_port)
  in
  let inputs = List.init a.Sdf.actor_inputs (fun i -> input (i + 1)) in
  let out expr = M2t.line t "double %s = %s;" (out_var p a 1) expr in
  let call fn x = Printf.sprintf "%s(%s)" (d.math fn) x in
  let param = Exec.param_float blk in
  let fn = S.param_string blk "Function" in
  (match blk.S.blk_type with
  | B.Constant -> out (Printf.sprintf "%.17g" (param "Value" 0.0))
  | B.Ground -> out "0.0"
  | B.Gain -> out (Printf.sprintf "%.17g * %s" (param "Gain" 1.0) (d.operand (input 1)))
  | B.Product ->
      out (if inputs = [] then "1.0" else String.concat " * " (List.map d.operand inputs))
  | B.Sum ->
      let terms =
        List.map2
          (fun sign x -> Printf.sprintf "%c (%s)" (if sign < 0.0 then '-' else '+') x)
          (Exec.sum_signs blk a.Sdf.actor_inputs)
          inputs
      in
      out (if terms = [] then "0.0" else "0.0 " ^ String.concat " " terms)
  | B.Saturation -> (
      let hi = param "UpperLimit" 1.0 and lo = param "LowerLimit" (-1.0) and x = input 1 in
      match d.min_max with
      | Some (min, max) -> out (Printf.sprintf "%s(%.17g, %s(%.17g, %s))" min hi max lo x)
      | None ->
          out
            (Printf.sprintf "(%s) > %.17g ? %.17g : ((%s) < %.17g ? %.17g : (%s))" x hi hi x lo
               lo x))
  | B.Switch ->
      out
        (Printf.sprintf "(%s) >= %.17g ? (%s) : (%s)" (input 2) (param "Threshold" 0.0)
           (input 1) (input 3))
  | B.Abs -> out (call "fabs" (input 1))
  | B.Sqrt -> out (call "sqrt" (input 1))
  | B.Trig ->
      let f = match fn with Some ("cos" | "tan" as f) -> f | Some _ | None -> "sin" in
      out (call f (input 1))
  | B.Min_max ->
      let min, max = Option.value d.min_max ~default:(d.math "fmin", d.math "fmax") in
      let pick = if fn = Some "min" then min else max in
      let folded =
        match inputs with
        | [] -> "0.0"
        | first :: rest ->
            List.fold_left (fun acc x -> Printf.sprintf "%s(%s, %s)" pick acc x) first rest
      in
      out
        (match (d.min_max, inputs) with
        | None, _ :: _ :: _ ->
            (* fmin/fmax return the other operand of a NaN, where the
               reference's Float.min/max return the NaN itself. *)
            let is_nan x = Printf.sprintf "(%s) != (%s)" x x in
            Printf.sprintf "%s ? %s : %s"
              (String.concat " || " (List.map is_nan inputs))
              (String.concat " + " (List.map (Printf.sprintf "(%s)") inputs))
              folded
        | _ -> folded)
  | B.Math -> out (call (if fn = Some "log" then "log" else "exp") (input 1))
  | B.Mux -> out (input 1)
  | B.Demux ->
      for port = 1 to a.Sdf.actor_outputs do
        M2t.line t "double %s = %s;" (out_var p a port) (input 1)
      done
  | B.Terminator -> M2t.line t "%s" (d.discard (p.ident a.Sdf.actor_name) (input 1))
  | B.Unit_delay -> M2t.line t "%s = %s;" (state_var p a) (input 1)
  | B.S_function -> d.sfunction t p a inputs
  | B.Inport | B.Outport | B.Subsystem | B.Channel ->
      invalid_arg "codegen: structural block in a thread body");
  (* Push cross-thread outputs (delays pushed their snapshot already). *)
  if not (is_delay a) then push_outputs t d p a (fun e -> out_var p a e.Sdf.edge_src_port)

let rounds_loop t body =
  M2t.block t ~opener:"for (int round = 0; round < ROUNDS; ++round) {" ~closer:"}" body

(* A worker's round loop.  Phase 0 writes every owned UnitDelay's
   snapshot to its cross-thread consumers before anything can block:
   the cycle-closing token of round n is queued before any pop of
   round n, which is what makes cross-thread feedback deadlock-free. *)
let worker_rounds t d p w =
  rounds_loop t (fun () ->
      List.iter
        (fun a ->
          if is_delay a then (
            M2t.line t "double %s = %s;" (snapshot_var p a) (state_var p a);
            push_outputs t d p a (fun _ -> snapshot_var p a)))
        w.actors;
      List.iter (emit_actor t d p) w.actors)

(* The environment's round loop: the reference stimulus into every
   top-level Inport, then one printed sample per top-level Outport. *)
let environment_rounds t d p =
  rounds_loop t (fun () ->
      List.iter
        (fun (a : Sdf.actor) ->
          M2t.line t "double %s = %s((round + %d.0) / 5.0);" (out_var p a 1) (d.math "sin")
            (Exec.stimulus_phase a.Sdf.actor_name);
          push_outputs t d p a (fun _ -> out_var p a 1))
        p.env_inputs;
      List.iter
        (fun name ->
          let value =
            match Sdf.preds p.sdf name with
            | e :: _ -> ( match fifo_for p e with Some f -> d.pop f.var | None -> "0.0")
            | [] -> "0.0"
          in
          M2t.line t "%s" (d.print (p.ident name) value))
        p.sdf.Sdf.graph_outputs)

(* The S-Function's inputs gathered into a local [in_<id>] array. *)
let input_array t p (a : Sdf.actor) inputs =
  let id = p.ident a.Sdf.actor_name in
  M2t.line t "double in_%s[%d];" id (max a.Sdf.actor_inputs 1);
  List.iteri (fun i x -> M2t.line t "in_%s[%d] = %s;" id i x) inputs;
  id
