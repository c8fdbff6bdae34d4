(* The compiled flat-schedule executor: ring-buffer FIFO discipline,
   bit-identity with the reference interpreter in both the sequential
   and the batched work-stealing mode, telemetry parity, a firing loop
   that allocates nothing, and the property over every random model
   shape at several domain counts. *)

module Pool = Umlfront_parallel.Pool
module Wsdeque = Umlfront_parallel.Wsdeque
module Core = Umlfront_core
module Sdf = Umlfront_dataflow.Sdf
module Exec = Umlfront_dataflow.Exec
module Compiled = Umlfront_dataflow.Compiled
module Fifo = Umlfront_dataflow.Compiled.Fifo
module Cs = Umlfront_casestudies
module R = Umlfront_casestudies.Random_models
module T = Umlfront_obs.Telemetry
module Obs = Umlfront_obs
module S = Umlfront_simulink.System
module B = Umlfront_simulink.Block

let check = Alcotest.check
let test name f = Alcotest.test_case name `Quick f

(* --- the FIFO ------------------------------------------------------- *)

let fifo_basics () =
  let f = Fifo.create ~capacity:2 in
  check Alcotest.int "capacity" 2 (Fifo.capacity f);
  check Alcotest.bool "fresh is empty" true (Fifo.is_empty f);
  Fifo.push f 1.0;
  Fifo.push f 2.0;
  check Alcotest.bool "at capacity" true (Fifo.is_full f);
  check Alcotest.int "length" 2 (Fifo.length f);
  check (Alcotest.float 0.0) "FIFO order" 1.0 (Fifo.pop f);
  check (Alcotest.float 0.0) "FIFO order" 2.0 (Fifo.pop f);
  check Alcotest.bool "drained" true (Fifo.is_empty f)

let fifo_full_and_empty_raise () =
  let f = Fifo.create ~capacity:1 in
  (match Fifo.pop f with
  | exception Fifo.Empty -> ()
  | _ -> Alcotest.fail "expected Empty");
  Fifo.push f 7.0;
  (match Fifo.push f 8.0 with
  | exception Fifo.Full -> ()
  | () -> Alcotest.fail "expected Full");
  check (Alcotest.float 0.0) "survivor" 7.0 (Fifo.pop f);
  match Fifo.create ~capacity:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

(* The delay-edge pattern: occupancy oscillates 1 <-> 2 forever, so the
   head index crosses the ring boundary every round.  Pin that the
   wrapped slots still come back in order. *)
let fifo_wraparound () =
  let f = Fifo.create ~capacity:2 in
  Fifo.push f 0.0 (* the initial token *);
  for round = 1 to 100 do
    Fifo.push f (float_of_int round);
    let v = Fifo.pop f in
    check (Alcotest.float 0.0)
      (Printf.sprintf "round %d pops the older token" round)
      (float_of_int (round - 1))
      v;
    check Alcotest.int "steady occupancy" 1 (Fifo.length f)
  done

(* A capacity that is not a power of two: the logical capacity is still
   enforced even though the backing ring is rounded up. *)
let fifo_non_pow2_capacity () =
  let f = Fifo.create ~capacity:3 in
  Fifo.push f 1.0;
  Fifo.push f 2.0;
  Fifo.push f 3.0;
  (match Fifo.push f 4.0 with
  | exception Fifo.Full -> ()
  | () -> Alcotest.fail "expected Full at logical capacity");
  check (Alcotest.float 0.0) "order kept" 1.0 (Fifo.pop f)

let fifo_slot_view () =
  let f = Fifo.create ~capacity:4 in
  (* slots address the ring positionally, mod its (pow2) size *)
  Fifo.set_slot f 2 9.0;
  check (Alcotest.float 0.0) "slot read" 9.0 (Fifo.get_slot f 2);
  check (Alcotest.float 0.0) "slot wraps" 9.0 (Fifo.get_slot f 6)

(* --- the deque ------------------------------------------------------ *)

let wsdeque_lifo_owner_fifo_thief () =
  let q = Wsdeque.create ~capacity:8 in
  Wsdeque.push q 1;
  Wsdeque.push q 2;
  Wsdeque.push q 3;
  check (Alcotest.option Alcotest.int) "steal takes oldest" (Some 1) (Wsdeque.steal q);
  check (Alcotest.option Alcotest.int) "pop takes newest" (Some 3) (Wsdeque.pop q);
  check (Alcotest.option Alcotest.int) "last item" (Some 2) (Wsdeque.pop q);
  check (Alcotest.option Alcotest.int) "empty pop" None (Wsdeque.pop q);
  check (Alcotest.option Alcotest.int) "empty steal" None (Wsdeque.steal q);
  Wsdeque.push q 4;
  Wsdeque.reset q;
  check (Alcotest.option Alcotest.int) "reset empties" None (Wsdeque.pop q)

(* --- bit-identity with the reference -------------------------------- *)

let outcomes_equal name (a : Exec.outcome) (b : Exec.outcome) =
  check Alcotest.int (name ^ " rounds") a.Exec.rounds b.Exec.rounds;
  check
    Alcotest.(list (pair string (array (float 0.0))))
    (name ^ " traces (bit-identical)") a.Exec.traces b.Exec.traces;
  check
    Alcotest.(list (pair string int))
    (name ^ " firings") a.Exec.firings b.Exec.firings

let case_studies () =
  List.map
    (fun (name, model) -> (name, (Core.Flow.run (model ())).Core.Flow.caam))
    [
      ("crane", Cs.Crane_system.model);
      ("synthetic", Cs.Synthetic_system.model);
      ("elevator", Cs.Elevator_system.model);
      ("mjpeg", Cs.Mjpeg_system.model);
      ("didactic", Cs.Didactic.model);
    ]

let compiled_sequential_matches_reference () =
  List.iter
    (fun (name, caam) ->
      let sdf = Sdf.of_model caam in
      let seq = Exec.run ~rounds:25 sdf in
      outcomes_equal name seq (Compiled.run ~rounds:25 sdf);
      (* a 1-domain pool takes the sequential flat path too *)
      Pool.with_pool ~domains:1 (fun pool ->
          outcomes_equal (name ^ " seq-pool") seq (Compiled.run ~pool ~rounds:25 sdf)))
    (case_studies ())

let compiled_parallel_matches_reference () =
  List.iter
    (fun (name, caam) ->
      let sdf = Sdf.of_model caam in
      let seq = Exec.run ~rounds:25 sdf in
      Pool.with_pool ~domains:4 (fun pool ->
          outcomes_equal (name ^ " @4") seq (Compiled.run ~pool ~rounds:25 sdf)))
    (case_studies ())

(* The batch size only affects scheduling, never the outcome — in
   particular when rounds is not a multiple of the batch. *)
let compiled_batch_size_is_invisible () =
  let sdf =
    Sdf.of_model (Core.Flow.run (Cs.Crane_system.model ())).Core.Flow.caam
  in
  let seq = Exec.run ~rounds:25 sdf in
  Pool.with_pool ~domains:2 (fun pool ->
      List.iter
        (fun batch ->
          outcomes_equal
            (Printf.sprintf "batch %d" batch)
            seq
            (Compiled.run ~pool ~batch ~rounds:25 sdf))
        [ 1; 3; 25; 32; 100 ])

(* The S-Functions run their default behaviour on both sides. *)
let compiled_honours_stimulus_and_sfunctions () =
  let sdf =
    Sdf.of_model (Core.Flow.run (Cs.Synthetic_system.model ())).Core.Flow.caam
  in
  let stimulus name round = float_of_int (String.length name * round) in
  let seq = Exec.run ~stimulus ~rounds:12 sdf in
  outcomes_equal "custom stimulus" seq (Compiled.run ~stimulus ~rounds:12 sdf);
  Pool.with_pool ~domains:2 (fun pool ->
      outcomes_equal "custom stimulus @2" seq (Compiled.run ~stimulus ~pool ~rounds:12 sdf))

let compile_deadlocks_like_the_reference () =
  (* a zero-delay cycle; the crane model with its UnitDelay removed is
     built in test_parallel — here a minimal two-actor loop suffices *)
  let uml = R.cyclic ~seed:3 ~stages:1 in
  let caam = (Core.Flow.run uml).Core.Flow.caam in
  let sdf = Sdf.of_model caam in
  (* sanity: the delay-broken loop compiles and runs *)
  outcomes_equal "cyclic runs" (Exec.run ~rounds:8 sdf) (Compiled.run ~rounds:8 sdf)

let token_stream pool_opt sdf rounds run =
  T.enable ();
  Fun.protect
    ~finally:(fun () ->
      T.disable ();
      T.reset ())
    (fun () ->
      ignore (run ?pool:pool_opt ~rounds sdf : Exec.outcome);
      List.map (fun (t : T.token) -> t.T.prov) (T.tokens ()))

(* Token provenance must be the exact stream the reference records:
   same channels, same producers, same firing indices, same order. *)
let compiled_telemetry_matches_reference () =
  let sdf =
    Sdf.of_model (Core.Flow.run (Cs.Crane_system.model ())).Core.Flow.caam
  in
  let rounds = 6 in
  let reference =
    token_stream None sdf rounds (fun ?pool:_ ~rounds sdf -> Exec.run ~rounds sdf)
  in
  check Alcotest.bool "reference saw tokens" true (reference <> []);
  let compiled_seq =
    token_stream None sdf rounds (fun ?pool ~rounds sdf ->
        Compiled.run ?pool ~rounds sdf)
  in
  check Alcotest.bool "sequential telemetry identical" true
    (reference = compiled_seq);
  Pool.with_pool ~domains:2 (fun pool ->
      let compiled_par =
        token_stream (Some pool) sdf rounds (fun ?pool ~rounds sdf ->
            Compiled.run ?pool ~batch:4 ~rounds sdf)
      in
      check Alcotest.bool "parallel telemetry identical" true
        (reference = compiled_par))

(* --- the firing loop allocates nothing ------------------------------- *)

(* Past the per-run set-up (rings, scratch, the trace arrays, which at
   these lengths go straight to the major heap), 500 more rounds must
   cost no minor words: no boxed token, no S-Function output array.
   Spans are off outside a served request.  A served request runs with
   them on, and then each round also reads the clock once into the
   run's array of round times, which is recorded after the loop: 500
   more rounds may cost at most one minor word per firing. *)
let compiled_firing_loop_allocates_nothing () =
  List.iter
    (fun (shape, uml) ->
      let sdf = Sdf.of_model (Core.Flow.run uml).Core.Flow.caam in
      check Alcotest.bool (shape ^ " has default S-Functions") true
        (List.exists
           (fun (a : Sdf.actor) -> a.Sdf.actor_block.S.blk_type = B.S_function)
           sdf.Sdf.actors);
      let plan = Compiled.compile sdf in
      List.iter
        (fun (trace, bound) ->
          let minor_words rounds =
            Obs.Context.with_current (Obs.Context.create ~trace ()) (fun () ->
                let before = Gc.minor_words () in
                ignore (Compiled.run_plan ~rounds plan : Exec.outcome);
                Gc.minor_words () -. before)
          in
          let w500 = minor_words 500 in
          let w1000 = minor_words 1000 in
          let per_firing =
            (w1000 -. w500) /. float_of_int (500 * List.length sdf.Sdf.actors)
          in
          if per_firing > bound then
            Alcotest.failf "%s, spans %s: %.2f minor words per extra firing" shape
              (if trace then "on" else "off")
              per_firing)
        [ (false, 0.5); (true, 1.0) ])
    [
      ("pipeline", R.pipeline ~seed:3 ~threads:5 ~extra_edges:2);
      ("chatty", R.chatty ~seed:3 ~threads:4 ~width:3);
    ]

(* --- the property: every shape, several domain counts --------------- *)

let shapes =
  [|
    ( "pipeline",
      fun st seed ->
        R.pipeline ~seed
          ~threads:(3 + Random.State.int st 3)
          ~extra_edges:(Random.State.int st 3) );
    ( "wide",
      fun st seed ->
        R.wide ~seed
          ~branches:(2 + Random.State.int st 3)
          ~depth:(1 + Random.State.int st 2) );
    ("monolithic", fun st seed -> R.monolithic ~seed ~calls:(3 + Random.State.int st 6));
    ("cyclic", fun st seed -> R.cyclic ~seed ~stages:(Random.State.int st 4));
    ( "multi-cpu",
      fun st seed ->
        R.multi_cpu ~seed
          ~threads:(3 + Random.State.int st 3)
          ~cpus:(2 + Random.State.int st 2)
          ~extra_edges:(Random.State.int st 2) );
    ( "chatty",
      fun st seed ->
        R.chatty ~seed
          ~threads:(2 + Random.State.int st 3)
          ~width:(1 + Random.State.int st 3) );
  |]

let qcheck_compiled_matches_reference_on_random_models =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make
       ~name:"compiled == Exec.run on every shape at 1, 2 and 4 domains" ~count:30
       (QCheck.make
          ~print:(fun (shape, seed) -> Printf.sprintf "%d:%s" seed (fst shapes.(shape)))
          QCheck.Gen.(pair (int_bound (Array.length shapes - 1)) (int_bound 99_999)))
       (fun (shape, seed) ->
         let _, gen = shapes.(shape) in
         let uml = gen (Random.State.make [| seed |]) seed in
         match Sdf.of_model (Core.Flow.run uml).Core.Flow.caam with
         | exception Invalid_argument _ -> true (* ill-formed reject, not a failure *)
         | sdf ->
             let rounds = 11 in
             let seq = Exec.run ~rounds sdf in
             let same (o : Exec.outcome) =
               o.Exec.traces = seq.Exec.traces && o.Exec.firings = seq.Exec.firings
             in
             same (Compiled.run ~rounds sdf)
             && List.for_all
                  (fun domains ->
                    Pool.with_pool ~domains (fun pool ->
                        same (Compiled.run ~pool ~batch:4 ~rounds sdf)))
                  [ 1; 2; 4 ]))

let suite =
  [
    ( "compiled",
      [
        test "fifo: push/pop order and occupancy" fifo_basics;
        test "fifo: Full and Empty are enforced" fifo_full_and_empty_raise;
        test "fifo: wraparound keeps FIFO order" fifo_wraparound;
        test "fifo: non-power-of-two logical capacity" fifo_non_pow2_capacity;
        test "fifo: positional slot view wraps" fifo_slot_view;
        test "wsdeque: owner LIFO, thief FIFO" wsdeque_lifo_owner_fifo_thief;
        test "sequential compiled == reference on the case studies"
          compiled_sequential_matches_reference;
        test "work-stealing compiled == reference on the case studies"
          compiled_parallel_matches_reference;
        test "batch size never changes the outcome" compiled_batch_size_is_invisible;
        test "custom stimulus and s-functions are honoured"
          compiled_honours_stimulus_and_sfunctions;
        test "delay-broken cycles execute" compile_deadlocks_like_the_reference;
        test "token telemetry replays the reference stream"
          compiled_telemetry_matches_reference;
        test "the firing loop allocates nothing" compiled_firing_loop_allocates_nothing;
        qcheck_compiled_matches_reference_on_random_models;
      ] );
  ]
