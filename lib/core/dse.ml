module U = Umlfront_uml
module Sdf = Umlfront_dataflow.Sdf
module Timing = Umlfront_dataflow.Timing
module Pool = Umlfront_parallel.Pool
module Obs = Umlfront_obs

type candidate = {
  cpus : int;
  allocation : (string * string) list;
  makespan : float;
  period : float;
  speedup : float;
  comm_cost : float;
  inter_tokens : int;
  intra_tokens : int;
  delays_inserted : int;
}

type result = {
  candidates : candidate list;
  best : candidate;
  pareto : candidate list;
}

let evaluate ?cost_model uml k =
  let out = Flow.run ~strategy:(Flow.Infer_bounded k) uml in
  let sdf = Sdf.of_model out.Flow.caam in
  let report = Timing.evaluate ?model:cost_model sdf in
  let distinct_cpus =
    out.Flow.allocation |> List.map snd |> List.sort_uniq compare |> List.length
  in
  {
    cpus = distinct_cpus;
    allocation = out.Flow.allocation;
    makespan = report.Timing.makespan;
    period = report.Timing.period;
    speedup = report.Timing.speedup;
    comm_cost = report.Timing.comm_cost;
    inter_tokens = report.Timing.inter_tokens;
    intra_tokens = report.Timing.intra_tokens;
    delays_inserted = out.Flow.delays_inserted;
  }

let explore ?max_cpus ?cost_model ?pool uml =
  let n_threads = List.length (U.Model.threads uml) in
  if n_threads = 0 then invalid_arg "dse: model has no threads";
  let limit = Option.value max_cpus ~default:n_threads in
  let limit = max 1 (min limit n_threads) in
  (* Each candidate platform runs the whole synthesis + timing pipeline
     independently, so the sweep maps across the domain pool when one
     is supplied.  [evaluate] is deterministic and touches no shared
     state beyond the (mutex-guarded) obs sink, so the parallel sweep
     is bit-identical to the sequential one. *)
  let sweep f ks =
    match pool with
    | Some p when Pool.size p > 1 ->
        Obs.Metrics.incr "dse.parallel_sweeps";
        Pool.map p f ks
    | Some _ | None -> List.map f ks
  in
  (* Bounding to k CPUs can yield fewer distinct clusters; keep one
     candidate per distinct platform size. *)
  let candidates =
    sweep (fun k -> evaluate ?cost_model uml k) (List.init limit (fun i -> i + 1))
    |> List.sort_uniq (fun a b -> compare a.cpus b.cpus)
  in
  Obs.Metrics.incr "dse.candidates" ~by:(List.length candidates);
  let best =
    List.fold_left
      (fun acc c ->
        if c.makespan < acc.makespan -. 1e-9 then c
        else if Float.abs (c.makespan -. acc.makespan) < 1e-9 && c.cpus < acc.cpus then c
        else acc)
      (List.hd candidates) candidates
  in
  let dominated c =
    List.exists
      (fun other ->
        other != c
        && other.cpus <= c.cpus
        && other.makespan <= c.makespan +. 1e-9
        && (other.cpus < c.cpus || other.makespan < c.makespan -. 1e-9))
      candidates
  in
  let pareto = List.filter (fun c -> not (dominated c)) candidates in
  { candidates; best; pareto }

let summary r =
  let buf = Buffer.create 512 in
  let out fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  out "  %-5s %-10s %-8s %-9s %-10s %-7s %-7s %s\n" "cpus" "makespan" "period" "speedup"
    "comm-cost" "inter" "intra" "";
  List.iter
    (fun c ->
      out "  %-5d %-10.2f %-8.2f %-9.2f %-10.2f %-7d %-7d %s%s\n" c.cpus c.makespan
        c.period c.speedup c.comm_cost c.inter_tokens c.intra_tokens
        (if List.memq c r.pareto then "pareto" else "")
        (if c == r.best then " <- best" else ""))
    r.candidates;
  Buffer.contents buf
