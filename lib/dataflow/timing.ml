module S = Umlfront_simulink.System
module B = Umlfront_simulink.Block

type cost_model = {
  default_actor_cost : float;
  wire_cost : float;
  swfifo_cost : float;
  gfifo_cost : float;
  bus_serialized : bool;
}

let default_cost_model =
  {
    default_actor_cost = 1.0;
    wire_cost = 0.0;
    swfifo_cost = 2.0;
    gfifo_cost = 10.0;
    bus_serialized = true;
  }

type slot = {
  actor : string;
  cpu : string option;
  thread : string option;
  start : float;
  finish : float;
}

type report = {
  makespan : float;
  period : float;
  sequential : float;
  speedup : float;
  cpu_busy : (string * float) list;
  intra_tokens : int;
  inter_tokens : int;
  comm_cost : float;
  bus_busy : float;
  schedule : slot list;
}

let actor_cost model (a : Sdf.actor) =
  match List.assoc_opt "Cost" a.Sdf.actor_block.S.blk_params with
  | Some (B.P_float f) -> f
  | Some (B.P_int i) -> float_of_int i
  | Some _ | None -> (
      (* Environment ports are free; real work costs the default. *)
      match a.Sdf.actor_block.S.blk_type with
      | B.Inport | B.Outport when a.Sdf.actor_path = [] -> 0.0
      | _ -> model.default_actor_cost)

let edge_class (e : Sdf.edge) =
  let protocols = List.map snd e.Sdf.edge_channels in
  if List.mem "GFIFO" protocols then `Inter
  else if List.mem "SWFIFO" protocols then `Intra
  else `Wire

let edge_latency model e =
  match edge_class e with
  | `Inter -> model.gfifo_cost
  | `Intra -> model.swfifo_cost
  | `Wire -> model.wire_cost

let evaluate ?(model = default_cost_model) sdf =
  let order = Exec.firing_order sdf in
  let finish = Hashtbl.create 32 in
  let cpu_free = Hashtbl.create 8 in
  let cpu_busy = Hashtbl.create 8 in
  let actor name = Option.get (Sdf.find_actor sdf name) in
  let comm_cost = ref 0.0 in
  let intra = ref 0 and inter = ref 0 in
  (* Count token traffic (delay edges included: data still moves). *)
  List.iter
    (fun e ->
      match edge_class e with
      | `Inter -> incr inter
      | `Intra -> incr intra
      | `Wire -> ())
    sdf.Sdf.edges;
  let makespan = ref 0.0 in
  let schedule = ref [] in
  let bus_free = ref 0.0 in
  let bus_busy = ref 0.0 in
  List.iter
    (fun name ->
      let a = actor name in
      let cost = actor_cost model a in
      let data_ready =
        List.fold_left
          (fun acc (e : Sdf.edge) ->
            let latency = edge_latency model e in
            if latency > 0.0 then comm_cost := !comm_cost +. latency;
            let producer_done =
              Option.value (Hashtbl.find_opt finish e.Sdf.edge_src) ~default:0.0
            in
            let arrival =
              if model.bus_serialized && edge_class e = `Inter && latency > 0.0 then (
                (* The transfer needs the shared bus exclusively. *)
                let start = Float.max producer_done !bus_free in
                bus_free := start +. latency;
                bus_busy := !bus_busy +. latency;
                start +. latency)
              else producer_done +. latency
            in
            Float.max acc arrival)
          0.0 (Sdf.preds sdf name)
      in
      let start, record_cpu =
        match Sdf.cpu_of_actor a with
        | Some cpu ->
            let free = Option.value (Hashtbl.find_opt cpu_free cpu) ~default:0.0 in
            (Float.max free data_ready, Some cpu)
        | None -> (data_ready, None)
      in
      let done_at = start +. cost in
      Hashtbl.replace finish name done_at;
      (match record_cpu with
      | Some cpu ->
          Hashtbl.replace cpu_free cpu done_at;
          Hashtbl.replace cpu_busy cpu
            (cost +. Option.value (Hashtbl.find_opt cpu_busy cpu) ~default:0.0)
      | None -> ());
      schedule :=
        { actor = name; cpu = record_cpu; thread = Sdf.thread_of_actor a; start; finish = done_at }
        :: !schedule;
      if done_at > !makespan then makespan := done_at)
    order;
  let sequential =
    List.fold_left (fun acc a -> acc +. actor_cost model a) 0.0 sdf.Sdf.actors
  in
  let period =
    Hashtbl.fold (fun _ busy acc -> Float.max acc busy) cpu_busy 0.0
  in
  {
    makespan = !makespan;
    period;
    sequential;
    speedup = (if !makespan > 0.0 then sequential /. !makespan else 1.0);
    cpu_busy =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) cpu_busy []
      |> List.sort (fun (a, _) (b, _) -> compare a b);
    intra_tokens = !intra;
    inter_tokens = !inter;
    comm_cost = !comm_cost;
    bus_busy = !bus_busy;
    schedule = List.rev !schedule;
  }

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>makespan %.2f, period %.2f (sequential %.2f, speedup %.2fx)@,comm: %d intra + %d inter tokens, cost %.2f, bus busy %.2f@,%a@]"
    r.makespan r.period r.sequential r.speedup r.intra_tokens r.inter_tokens r.comm_cost
    r.bus_busy
    (Format.pp_print_list (fun ppf (cpu, busy) ->
         Format.fprintf ppf "%s busy %.2f" cpu busy))
    r.cpu_busy
