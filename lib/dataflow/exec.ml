module S = Umlfront_simulink.System
module B = Umlfront_simulink.Block
module G = Umlfront_taskgraph.Graph
module Algo = Umlfront_taskgraph.Algo
module Obs = Umlfront_obs

exception Deadlock of string list

type outcome = {
  rounds : int;
  traces : (string * float array) list;
  firings : (string * int) list;
}

let firing_order sdf =
  let g = Sdf.to_taskgraph sdf in
  match Algo.topological_sort g with
  | order -> order
  | exception Algo.Cycle cycle ->
      Obs.Journal.record "exec.deadlock"
        ~fields:
          [ ("victims", Obs.Json.List (List.map (fun v -> Obs.Json.String v) cycle)) ];
      raise (Deadlock cycle)

(* Dependency levels over the delay-cut dependence graph: an actor's
   level is 1 + the max level of its non-UnitDelay predecessors.  Two
   actors in the same level cannot depend on each other within a round
   (a non-delay edge forces a strictly larger level; a delay edge reads
   the previous round's snapshot).  Lint's buffer-bound rule reads
   producer/consumer order off these levels. *)
let levels sdf =
  let order = firing_order sdf in
  let actor name =
    match Sdf.find_actor sdf name with
    | Some a -> a
    | None -> invalid_arg (Printf.sprintf "exec: unknown actor %s" name)
  in
  let level = Hashtbl.create 64 in
  let level_of n = Option.value (Hashtbl.find_opt level n) ~default:0 in
  List.iter
    (fun name ->
      let l =
        List.fold_left
          (fun acc (e : Sdf.edge) ->
            if (actor e.Sdf.edge_src).Sdf.actor_block.S.blk_type = B.Unit_delay then acc
            else max acc (1 + level_of e.Sdf.edge_src))
          0 (Sdf.preds sdf name)
      in
      Hashtbl.replace level name l)
    order;
  let max_level = List.fold_left (fun acc n -> max acc (level_of n)) 0 order in
  let buckets = Array.make (max_level + 1) [] in
  List.iter (fun n -> buckets.(level_of n) <- n :: buckets.(level_of n)) order;
  Array.to_list (Array.map List.rev buckets)

let default_sfunction name inputs n_outputs =
  let h = Hashtbl.hash name in
  let a = 0.25 +. (float_of_int (h mod 7) /. 8.0) in
  let b = float_of_int (h mod 13) /. 13.0 in
  let total = Array.fold_left ( +. ) 0.0 inputs in
  Array.init n_outputs (fun j -> (a *. total) +. b +. (0.1 *. float_of_int j))

let param_float (blk : S.block) key fallback =
  match List.assoc_opt key blk.S.blk_params with
  | Some (B.P_float f) -> f
  | Some (B.P_int i) -> float_of_int i
  | Some (B.P_string s) -> ( match float_of_string_opt s with Some f -> f | None -> fallback)
  | Some (B.P_bool _) | None -> fallback

let sum_signs (blk : S.block) n_inputs =
  match S.param_string blk "Inputs" with
  | Some signs when String.length signs = n_inputs ->
      List.init n_inputs (fun i -> if signs.[i] = '-' then -1.0 else 1.0)
  | Some _ | None -> List.init n_inputs (fun _ -> 1.0)

let behaviour ~sfunctions (a : Sdf.actor) ins =
  let blk = a.Sdf.actor_block in
  match blk.S.blk_type with
  | B.Constant -> [| param_float blk "Value" 0.0 |]
  | B.Ground -> [| 0.0 |]
  | B.Gain -> [| param_float blk "Gain" 1.0 *. ins.(0) |]
  | B.Product -> [| Array.fold_left ( *. ) 1.0 ins |]
  | B.Sum ->
      let signs = sum_signs blk a.Sdf.actor_inputs in
      [|
        List.fold_left2 (fun acc s x -> acc +. (s *. x)) 0.0 signs (Array.to_list ins);
      |]
  | B.Saturation ->
      let hi = param_float blk "UpperLimit" 1.0 in
      let lo = param_float blk "LowerLimit" (-1.0) in
      [| Float.min hi (Float.max lo ins.(0)) |]
  | B.Switch ->
      let threshold = param_float blk "Threshold" 0.0 in
      [| (if ins.(1) >= threshold then ins.(0) else ins.(2)) |]
  | B.Abs -> [| Float.abs ins.(0) |]
  | B.Sqrt -> [| sqrt ins.(0) |]
  | B.Trig ->
      let f =
        match S.param_string blk "Function" with
        | Some "cos" -> cos
        | Some "tan" -> tan
        | Some _ | None -> sin
      in
      [| f ins.(0) |]
  | B.Min_max ->
      let pick =
        if S.param_string blk "Function" = Some "min" then Float.min else Float.max
      in
      [| (match Array.to_list ins with [] -> 0.0 | x :: rest -> List.fold_left pick x rest) |]
  | B.Math ->
      let f =
        match S.param_string blk "Function" with
        | Some "log" -> log
        | Some _ | None -> exp
      in
      [| f ins.(0) |]
  | B.Mux -> [| (if a.Sdf.actor_inputs > 0 then ins.(0) else 0.0) |]
  | B.Demux ->
      Array.make a.Sdf.actor_outputs (if a.Sdf.actor_inputs > 0 then ins.(0) else 0.0)
  | B.Terminator -> [||]
  | B.S_function ->
      let fn_name =
        Option.value (S.param_string blk "FunctionName") ~default:blk.S.blk_name
      in
      (match sfunctions fn_name with
      | Some f -> f ins
      | None -> default_sfunction fn_name ins a.Sdf.actor_outputs)
  | B.Unit_delay | B.Inport | B.Outport | B.Subsystem | B.Channel ->
      invalid_arg
        (Printf.sprintf "exec: %s is not a combinational actor" a.Sdf.actor_name)

type session = {
  sess_sdf : Sdf.t;
  sess_order : string list;
  sess_sfunctions : string -> (float array -> float array) option;
  delay_state : (string, float) Hashtbl.t;
  delay_snapshot : (string, float) Hashtbl.t;
  outputs : (string * int, float) Hashtbl.t;
  firings : (string, int) Hashtbl.t;
  mutable round : int;
}

let start ?(sfunctions = fun _ -> None) sdf =
  let order = firing_order sdf in
  let delay_state = Hashtbl.create 8 in
  List.iter
    (fun (a : Sdf.actor) ->
      if a.Sdf.actor_block.S.blk_type = B.Unit_delay then
        Hashtbl.replace delay_state a.Sdf.actor_name
          (param_float a.Sdf.actor_block "InitialCondition" 0.0))
    sdf.Sdf.actors;
  {
    sess_sdf = sdf;
    sess_order = order;
    sess_sfunctions = sfunctions;
    delay_state;
    delay_snapshot = Hashtbl.create 8;
    outputs = Hashtbl.create 32;
    firings = Hashtbl.create 32;
    round = 0;
  }

let rounds_executed t = t.round

let session_actor t name =
  match Sdf.find_actor t.sess_sdf name with
  | Some a -> a
  | None -> invalid_arg (Printf.sprintf "exec: unknown actor %s" name)

let input_values t (a : Sdf.actor) =
  let values = Array.make a.Sdf.actor_inputs 0.0 in
  List.iter
    (fun (e : Sdf.edge) ->
      let src_actor = session_actor t e.Sdf.edge_src in
      let v =
        if src_actor.Sdf.actor_block.S.blk_type = B.Unit_delay then
          Hashtbl.find t.delay_snapshot e.Sdf.edge_src
        else
          match Hashtbl.find_opt t.outputs (e.Sdf.edge_src, e.Sdf.edge_src_port) with
          | Some v -> v
          | None -> 0.0
      in
      if e.Sdf.edge_dst_port >= 1 && e.Sdf.edge_dst_port <= a.Sdf.actor_inputs then
        values.(e.Sdf.edge_dst_port - 1) <- v)
    (Sdf.preds t.sess_sdf a.Sdf.actor_name);
  values

(* Token telemetry for one firing of [a]: consume the tokens waiting on
   its input channels, then produce one token per outgoing edge, stamped
   with the producing actor, its (1-based) firing index, the round and
   the protocols the edge crosses.  Called in topological firing order,
   so a producer always records before its same-round consumers and
   the FIFO match in the sink lines up with channel semantics. *)
let record_tokens t (a : Sdf.actor) =
  let name = a.Sdf.actor_name in
  let firing = Option.value (Hashtbl.find_opt t.firings name) ~default:1 in
  List.iter
    (fun (e : Sdf.edge) ->
      ignore (Obs.Telemetry.consume ~by:name (Sdf.channel_name e)))
    (Sdf.preds t.sess_sdf name);
  List.iter
    (fun (e : Sdf.edge) ->
      ignore
        (Obs.Telemetry.produce ~protocols:(Sdf.edge_protocols e) ~round:t.round
           ~dst:e.Sdf.edge_dst ~src:name ~firing (Sdf.channel_name e)))
    (Sdf.succs t.sess_sdf name)

let step t ~stimulus =
  Hashtbl.reset t.outputs;
  Hashtbl.iter (fun k v -> Hashtbl.replace t.delay_snapshot k v) t.delay_state;
  let port_samples = ref [] in
  let tracing = Obs.Telemetry.enabled () in
  let fire (a : Sdf.actor) =
    let blk = a.Sdf.actor_block in
    let ins = input_values t a in
    let set port v = Hashtbl.replace t.outputs ((a.Sdf.actor_name, port) : string * int) v in
    (match blk.S.blk_type with
    | B.Unit_delay ->
        (* Consumers read the old state (snapshot, in input_values);
           store the new one for the next round. *)
        Hashtbl.replace t.delay_state a.Sdf.actor_name
          (if a.Sdf.actor_inputs > 0 then ins.(0) else 0.0)
    | B.Inport -> set 1 (stimulus a.Sdf.actor_name)
    | B.Outport ->
        let v = if a.Sdf.actor_inputs > 0 then ins.(0) else 0.0 in
        port_samples := (a.Sdf.actor_name, v) :: !port_samples
    | _ ->
        Array.iteri
          (fun j v -> set (j + 1) v)
          (behaviour ~sfunctions:t.sess_sfunctions a ins));
    Hashtbl.replace t.firings a.Sdf.actor_name
      (1 + Option.value (Hashtbl.find_opt t.firings a.Sdf.actor_name) ~default:0);
    if tracing then record_tokens t a
  in
  List.iter (fun name -> fire (session_actor t name)) t.sess_order;
  t.round <- t.round + 1;
  List.rev !port_samples

let default_stimulus name round =
  let h = float_of_int (Hashtbl.hash name mod 10) in
  sin ((float_of_int round +. h) /. 5.0)

(* Tokens crossing each channel protocol: in an SDF round every edge
   carries exactly one token, so per-round occupancy per protocol is
   the number of edges using it and the total traffic is that times
   the rounds executed.  This is what answers "how many tokens crossed
   each GFIFO channel?" without touching the per-firing hot loop. *)
let channel_metrics sdf rounds =
  let count proto =
    List.length
      (List.filter
         (fun (e : Sdf.edge) -> List.exists (fun (_, p) -> String.equal p proto) e.Sdf.edge_channels)
         sdf.Sdf.edges)
  in
  List.iter
    (fun proto ->
      let edges = count proto in
      if edges > 0 then (
        Obs.Metrics.set_gauge
          (Printf.sprintf "exec.channel_occupancy.%s" (String.lowercase_ascii proto))
          (float_of_int edges);
        Obs.Metrics.incr
          (Printf.sprintf "exec.tokens.%s" (String.lowercase_ascii proto))
          ~by:(edges * rounds)))
    [ "GFIFO"; "SWFIFO" ]

let run ?sfunctions ?stimulus ~rounds sdf =
  Obs.Trace.with_span ~cat:"exec" "exec.run"
    ~args:(fun () ->
      [
        ("rounds", Obs.Json.Int rounds);
        ("actors", Obs.Json.Int (List.length sdf.Sdf.actors));
      ])
  @@ fun () ->
  let stimulus = Option.value stimulus ~default:default_stimulus in
  Obs.Journal.record "exec.run"
    ~fields:
      [
        ("rounds", Obs.Json.Int rounds);
        ("actors", Obs.Json.Int (List.length sdf.Sdf.actors));
        ("edges", Obs.Json.Int (List.length sdf.Sdf.edges));
      ];
  let session = start ?sfunctions sdf in
  let traces =
    List.map (fun name -> (name, Array.make rounds 0.0)) sdf.Sdf.graph_outputs
  in
  let observing = Obs.Trace.enabled () in
  for round = 0 to rounds - 1 do
    let t0 = if observing then Obs.Trace.now_us () else 0.0 in
    let samples = step session ~stimulus:(fun name -> stimulus name round) in
    if observing then Obs.Metrics.observe "exec.round_us" (Obs.Trace.now_us () -. t0);
    List.iter
      (fun (port, v) ->
        match List.assoc_opt port traces with
        | Some arr -> arr.(round) <- v
        | None -> ())
      samples
  done;
  let firings =
    List.map
      (fun (a : Sdf.actor) ->
        ( a.Sdf.actor_name,
          Option.value (Hashtbl.find_opt session.firings a.Sdf.actor_name) ~default:0 ))
      sdf.Sdf.actors
  in
  Obs.Metrics.incr "exec.rounds" ~by:rounds;
  Obs.Metrics.incr "exec.firings" ~by:(List.fold_left (fun acc (_, n) -> acc + n) 0 firings);
  List.iter
    (fun (name, n) -> if n > 0 then Obs.Metrics.incr ("exec.firings." ^ name) ~by:n)
    firings;
  channel_metrics sdf rounds;
  Obs.Journal.record "exec.done"
    ~fields:
      [
        ("rounds", Obs.Json.Int rounds);
        ( "firings",
          Obs.Json.Int (List.fold_left (fun acc (_, n) -> acc + n) 0 firings) );
      ];
  (* With token tracing on, persist each channel's high-water mark in
     the journal — the part of the occupancy story worth keeping after
     the token ring has wrapped. *)
  if Obs.Telemetry.enabled () then
    List.iter
      (fun (s : Obs.Telemetry.channel_stat) ->
        Obs.Journal.record "channel.hwm"
          ~fields:
            [
              ("channel", Obs.Json.String s.Obs.Telemetry.chan_name);
              ("hwm", Obs.Json.Int s.Obs.Telemetry.chan_hwm);
              ("round", Obs.Json.Int s.Obs.Telemetry.chan_hwm_round);
            ])
      (Obs.Telemetry.channels ());
  { rounds; traces; firings }
