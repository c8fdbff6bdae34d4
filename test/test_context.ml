(* Telemetry contexts: the reentrancy invariants the Obs.Context
   tentpole promises.

   - Isolation: two flows run concurrently on the domain pool with
     distinct contexts never observe each other's counters, spans or
     journal entries (the qcheck property drives the pair repeatedly —
     racing schedules is the point).
   - Merge determinism: Context.merge of per-domain children is
     independent of the order the children are listed in.
   - Tree shape: a context-scoped flow exports one rooted span tree
     whose root covers every flow phase, and pool batches fold worker
     metrics back into the submitting context. *)

module Obs = Umlfront_obs
module Core = Umlfront_core
module Dataflow = Umlfront_dataflow
module Pool = Umlfront_parallel.Pool
module CS = Umlfront_casestudies

let check = Alcotest.check
let checkb name = Alcotest.check Alcotest.bool name true

(* --- isolation ------------------------------------------------------ *)

let snapshot_in ctx = Obs.Context.with_current ctx Obs.Metrics.snapshot

let counter_in ctx name =
  List.fold_left
    (fun acc (s : Obs.Metrics.stat) ->
      if String.equal s.Obs.Metrics.s_name name then s.Obs.Metrics.s_count else acc)
    0 (snapshot_in ctx)

let events_in ctx = Obs.Context.with_current ctx (fun () -> Obs.Trace.events ())

let journal_in ctx = Obs.Context.with_current ctx (fun () -> Obs.Journal.entries ())

let span_model ev =
  match List.assoc_opt "model" ev.Obs.Trace.ev_args with
  | Some (Obs.Json.String m) -> Some m
  | _ -> None

(* Run crane and synthetic concurrently on one pool, each inside its
   own context, and require fully disjoint telemetry. *)
let isolated_once () =
  Pool.with_pool ~domains:2 @@ fun pool ->
  let cases =
    [
      (CS.Crane_system.model (), Obs.Context.create ~trace:true ());
      (CS.Synthetic_system.model (), Obs.Context.create ~trace:true ());
    ]
  in
  ignore (Pool.map pool (fun (uml, ctx) -> Core.Flow.run ~ctx uml) cases);
  List.for_all
    (fun (uml, ctx) ->
      let own_name = uml.Umlfront_uml.Model.model_name in
      let events = events_in ctx in
      let runs =
        List.filter (fun e -> e.Obs.Trace.ev_name = "flow.run") events
      in
      counter_in ctx "flow.runs" = 1
      && List.length runs = 1
      && List.for_all (fun e -> span_model e = Some own_name) runs
      && List.length
           (Obs.Journal.filter ~kind:"flow.run" (journal_in ctx))
         = 1)
    cases
  &&
  (* span ids are globally unique, so disjoint buffers share none *)
  let ids ctx =
    List.map (fun e -> e.Obs.Trace.ev_id) (events_in (snd ctx))
  in
  let a = ids (List.nth cases 0) and b = ids (List.nth cases 1) in
  List.for_all (fun i -> not (List.mem i b)) a

let contexts_isolated_on_pool =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"concurrent contexts observe only their own telemetry"
       ~count:15
       (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1000))
       (fun _ -> isolated_once ()))

(* --- merge determinism ---------------------------------------------- *)

(* Deterministically populate a forked child with counters, a gauge,
   histogram samples and one span. *)
let populate child i =
  Obs.Context.with_current child @@ fun () ->
  Obs.Metrics.incr "merged.counter" ~by:(i + 1);
  Obs.Metrics.set_gauge "merged.gauge" (float_of_int (10 - i));
  Obs.Metrics.observe "merged.hist" (float_of_int (i * 3));
  Obs.Metrics.observe "merged.hist" (float_of_int (i * 3 + 1));
  Obs.Trace.with_span ~cat:"test" (Printf.sprintf "child.%d" i) (fun () -> ())

let rec insert_at x i = function
  | rest when i <= 0 -> x :: rest
  | [] -> [ x ]
  | y :: rest -> y :: insert_at x (i - 1) rest

let permutation_of seed xs =
  let st = Random.State.make [| seed; 0xC0FFEE |] in
  List.fold_left
    (fun acc x -> insert_at x (Random.State.int st (List.length acc + 1)) acc)
    [] xs

let merged_view order =
  let parent = Obs.Context.create ~trace:true () in
  Obs.Context.merge ~into:parent order;
  let om = Obs.Openmetrics.render (snapshot_in parent) in
  let evs =
    List.map
      (fun e -> (e.Obs.Trace.ev_id, e.Obs.Trace.ev_parent, e.Obs.Trace.ev_name))
      (events_in parent)
  in
  (om, evs)

let merge_is_order_independent =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"Context.merge of per-domain children is order-independent"
       ~count:25
       (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 10_000))
       (fun seed ->
         let base = Obs.Context.create ~trace:true () in
         let children = List.init 4 (fun _ -> Obs.Context.fork base) in
         List.iteri (fun i c -> populate c i) children;
         let reference = merged_view children in
         let shuffled = merged_view (permutation_of seed children) in
         reference = shuffled))

(* --- tree shape and pool fold-back ---------------------------------- *)

let flow_phases =
  [ "flow.validate"; "flow.allocate"; "flow.map"; "flow.channels";
    "flow.barriers"; "flow.layout"; "flow.emit"; "flow.fsm" ]

let span_tree_roots_cover_phases () =
  let ctx = Obs.Context.create ~trace:true () in
  ignore (Core.Flow.run ~ctx (CS.Crane_system.model ()));
  let events = events_in ctx in
  let root =
    match List.filter (fun e -> e.Obs.Trace.ev_name = "flow.run") events with
    | [ r ] -> r
    | l -> Alcotest.failf "expected exactly one flow.run span, got %d" (List.length l)
  in
  check Alcotest.int "flow.run is a root" (-1) root.Obs.Trace.ev_parent;
  List.iter
    (fun phase ->
      match List.find_opt (fun e -> e.Obs.Trace.ev_name = phase) events with
      | None -> Alcotest.failf "missing phase span %s" phase
      | Some e ->
          check Alcotest.int (phase ^ " parented under flow.run")
            root.Obs.Trace.ev_id e.Obs.Trace.ev_parent)
    flow_phases;
  (* the rendered tree shows the root exactly once, unindented *)
  let rendered = Obs.Span_tree.render ~timings:false events in
  checkb "root first in rendering"
    (String.length rendered > 8 && String.sub rendered 0 8 = "flow.run")

(* pool.tasks.d<i>: one increment per pool task, on whichever domain
   ran it — the d-digit filter keeps the pool.tasks total out. *)
let domain_tasks stats =
  List.fold_left
    (fun acc (s : Obs.Metrics.stat) ->
      let n = String.length "pool.tasks.d" in
      if
        String.starts_with ~prefix:"pool.tasks.d" s.Obs.Metrics.s_name
        && String.length s.Obs.Metrics.s_name > n
        && (match s.Obs.Metrics.s_name.[n] with '0' .. '9' -> true | _ -> false)
      then acc + s.Obs.Metrics.s_count
      else acc)
    0 stats

let pool_folds_workers_back () =
  Pool.with_pool ~domains:3 @@ fun pool ->
  let global_before = domain_tasks (snapshot_in Obs.Context.default) in
  let ctx = Obs.Context.create ~trace:true () in
  let output = Core.Flow.run ~ctx (CS.Crane_system.model ()) in
  let sdf = Dataflow.Sdf.of_model output.Core.Flow.caam in
  (* 8 rounds in batches of 4: two work-stealing phases, each one
     parallel_for of one task per domain. *)
  ignore (Dataflow.Compiled.run ~pool ~ctx ~batch:4 ~rounds:8 sdf);
  let stats = snapshot_in ctx in
  (* per-domain worker counters merged back equal the task total *)
  check Alcotest.int "pool.tasks counts one task per domain per batch"
    (2 * Pool.size pool) (counter_in ctx "pool.tasks");
  check Alcotest.int "per-domain tasks sum to the total"
    (counter_in ctx "pool.tasks") (domain_tasks stats);
  (* and none of it leaked into the global default context *)
  check Alcotest.int "no tasks leaked to the default registry" global_before
    (domain_tasks (snapshot_in Obs.Context.default))

let suite =
  [
    ( "context",
      [
        contexts_isolated_on_pool;
        merge_is_order_independent;
        Alcotest.test_case "flow span tree is rooted and covers all phases" `Quick
          span_tree_roots_cover_phases;
        Alcotest.test_case "pool merges per-domain children into the context" `Quick
          pool_folds_workers_back;
      ] );
  ]
