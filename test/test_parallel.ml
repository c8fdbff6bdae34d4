(* Umlfront_parallel: pool semantics (order preservation, chunking,
   exception propagation, sequential fallback), the SDF dependency
   levels lint relies on, and the determinism guarantee of the parallel
   DSE sweep — it must be bit-identical to the sequential sweep.  The
   compiled executor's parallel determinism is in test_compiled.ml. *)

module Pool = Umlfront_parallel.Pool
module Core = Umlfront_core
module B = Umlfront_simulink.Block
module S = Umlfront_simulink.System
module Model = Umlfront_simulink.Model
module Sdf = Umlfront_dataflow.Sdf
module Exec = Umlfront_dataflow.Exec
module Cs = Umlfront_casestudies

let check = Alcotest.check
let test name f = Alcotest.test_case name `Quick f
let pr block port = { S.block; S.port }

(* --- pool basics --------------------------------------------------- *)

let pool_map_matches_list_map () =
  Pool.with_pool ~domains:4 (fun pool ->
      let xs = List.init 100 (fun i -> i) in
      let f x = (x * x) + 1 in
      check Alcotest.(list int) "chunk 1" (List.map f xs) (Pool.map pool f xs);
      check Alcotest.(list int) "chunk 7" (List.map f xs) (Pool.map ~chunk:7 pool f xs);
      check Alcotest.(list int) "chunk > n" (List.map f xs)
        (Pool.map ~chunk:1000 pool f xs);
      check Alcotest.(list int) "empty" [] (Pool.map pool f []);
      check Alcotest.(list int) "singleton" [ f 9 ] (Pool.map pool f [ 9 ]))

let pool_preserves_order () =
  Pool.with_pool ~domains:3 (fun pool ->
      let xs = List.init 50 (fun i -> Printf.sprintf "s%02d" i) in
      check Alcotest.(list string) "order" xs (Pool.map pool Fun.id xs))

let sequential_pool_never_spawns () =
  let pool = Pool.create ~domains:1 () in
  check Alcotest.int "size" 1 (Pool.size pool);
  check Alcotest.(list int) "map still works" [ 2; 4 ]
    (Pool.map pool (fun x -> 2 * x) [ 1; 2 ]);
  Pool.shutdown pool;
  (* shutdown is idempotent and the pool degrades to sequential *)
  Pool.shutdown pool;
  check Alcotest.(list int) "after shutdown" [ 3 ] (Pool.map pool (fun x -> x + 1) [ 2 ])

let pool_reuse_across_batches () =
  Pool.with_pool ~domains:3 (fun pool ->
      for k = 1 to 5 do
        let xs = List.init (10 * k) (fun i -> i) in
        check Alcotest.(list int) "batch" (List.map succ xs) (Pool.map pool succ xs)
      done)

let exception_propagates_earliest () =
  Pool.with_pool ~domains:4 (fun pool ->
      Alcotest.check_raises "earliest failing input wins" (Failure "boom3") (fun () ->
          ignore
            (Pool.map pool
               (fun x -> if x = 3 || x = 7 then failwith (Printf.sprintf "boom%d" x) else x)
               (List.init 10 (fun i -> i))));
      (* the pool survives a failed batch *)
      check Alcotest.(list int) "pool still alive" [ 1; 2; 3 ]
        (Pool.map pool succ [ 0; 1; 2 ]))

let parallel_for_covers_all_indices () =
  Pool.with_pool ~domains:4 (fun pool ->
      let n = 200 in
      let hits = Array.make n 0 in
      Pool.parallel_for ~chunk:9 pool n (fun i -> hits.(i) <- hits.(i) + 1);
      check Alcotest.(array int) "each index exactly once" (Array.make n 1) hits;
      Alcotest.check_raises "exceptions propagate" (Failure "pf") (fun () ->
          Pool.parallel_for pool 5 (fun i -> if i = 2 then failwith "pf")))

let nested_map_degrades_to_sequential () =
  Pool.with_pool ~domains:3 (fun pool ->
      let result =
        Pool.map pool
          (fun i ->
            (* reentrant use from a task must not deadlock *)
            List.fold_left ( + ) 0 (Pool.map pool Fun.id (List.init i succ)))
          [ 1; 2; 3; 4; 5; 6; 7; 8 ]
      in
      check Alcotest.(list int) "gauss" [ 1; 3; 6; 10; 15; 21; 28; 36 ] result)

let map_array_matches () =
  Pool.with_pool ~domains:4 (fun pool ->
      let arr = Array.init 64 (fun i -> float_of_int i) in
      check Alcotest.(array (float 0.0)) "map_array" (Array.map sqrt arr)
        (Pool.map_array ~chunk:5 pool sqrt arr))

(* qcheck: for arbitrary inputs, chunkings and pool sizes, map is
   exactly List.map — order preserved, nothing lost or duplicated. *)
let qcheck_map_is_list_map =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"map preserves order for arbitrary chunkings" ~count:50
       (QCheck.make
          ~print:(fun (xs, chunk, domains) ->
            Printf.sprintf "(%s, chunk %d, domains %d)"
              (String.concat ";" (List.map string_of_int xs))
              chunk domains)
          QCheck.Gen.(
            triple (list_size (0 -- 40) (int_bound 1000)) (1 -- 8) (1 -- 4)))
       (fun (xs, chunk, domains) ->
         Pool.with_pool ~domains (fun pool ->
             Pool.map ~chunk pool (fun x -> (2 * x) - 7) xs
             = List.map (fun x -> (2 * x) - 7) xs)))

(* --- dependency levels --------------------------------------------- *)

(* Accumulator with a UnitDelay on the feedback edge (same shape as
   test_dataflow's counter). *)
let counter ?(with_delay = true) () =
  let root = S.empty "m" in
  let root = S.add_block ~params:[ ("Value", B.P_float 1.0) ] root B.Constant "one" in
  let root = S.add_block ~params:[ ("Inputs", B.P_string "++") ] root B.Sum "acc" in
  let root = S.add_block ~params:[ ("Port", B.P_int 1) ] root B.Outport "out" in
  let root = S.add_line root ~src:(pr "one" 1) ~dst:(pr "acc" 1) in
  let root =
    if with_delay then (
      let root =
        S.add_block ~params:[ ("InitialCondition", B.P_float 0.0) ] root B.Unit_delay "z"
      in
      let root = S.add_line root ~src:(pr "acc" 1) ~dst:(pr "z" 1) in
      S.add_line root ~src:(pr "z" 1) ~dst:(pr "acc" 2))
    else
      let root = S.add_block ~params:[ ("Gain", B.P_float 1.0) ] root B.Gain "idg" in
      let root = S.add_line root ~src:(pr "acc" 1) ~dst:(pr "idg" 1) in
      S.add_line root ~src:(pr "idg" 1) ~dst:(pr "acc" 2)
  in
  let root = S.add_line root ~src:(pr "acc" 1) ~dst:(pr "out" 1) in
  Model.make ~name:"counter" root

let levels_partition_firing_order () =
  let caam =
    (Core.Flow.run ~strategy:Core.Flow.Infer_linear (Cs.Synthetic_system.model ()))
      .Core.Flow.caam
  in
  let sdf = Sdf.of_model caam in
  let order = Exec.firing_order sdf in
  let lvls = Exec.levels sdf in
  check Alcotest.(list string) "concat levels is a permutation of the firing order"
    (List.sort compare order)
    (List.sort compare (List.concat lvls));
  (* every non-delay predecessor sits in a strictly earlier level *)
  let level_of =
    let tbl = Hashtbl.create 64 in
    List.iteri (fun l names -> List.iter (fun n -> Hashtbl.replace tbl n l) names) lvls;
    Hashtbl.find tbl
  in
  List.iter
    (fun (a : Sdf.actor) ->
      List.iter
        (fun (e : Sdf.edge) ->
          let src = Option.get (Sdf.find_actor sdf e.Sdf.edge_src) in
          if src.Sdf.actor_block.S.blk_type <> B.Unit_delay then
            check Alcotest.bool
              (Printf.sprintf "%s before %s" e.Sdf.edge_src a.Sdf.actor_name)
              true
              (level_of e.Sdf.edge_src < level_of a.Sdf.actor_name))
        (Sdf.preds sdf a.Sdf.actor_name))
    sdf.Sdf.actors

let levels_deadlock_on_zero_delay_cycle () =
  let sdf = Sdf.of_model (counter ~with_delay:false ()) in
  match Exec.levels sdf with
  | exception Exec.Deadlock cycle ->
      check Alcotest.bool "mentions acc" true (List.mem "acc" cycle)
  | _ -> Alcotest.fail "expected Deadlock"

(* --- determinism: parallel == sequential, bit for bit -------------- *)

let candidates_equal name (a : Core.Dse.result) (b : Core.Dse.result) =
  check Alcotest.bool (name ^ " candidates bit-identical") true
    (a.Core.Dse.candidates = b.Core.Dse.candidates);
  check Alcotest.bool (name ^ " best") true (a.Core.Dse.best = b.Core.Dse.best);
  check Alcotest.bool (name ^ " pareto") true (a.Core.Dse.pareto = b.Core.Dse.pareto)

let dse_parallel_sweep_is_deterministic () =
  let cases =
    [
      ("crane", Cs.Crane_system.model ());
      ("synthetic", Cs.Synthetic_system.model ());
      ("random-pipeline", Cs.Random_models.pipeline ~seed:13 ~threads:9 ~extra_edges:6);
    ]
  in
  List.iter
    (fun (name, uml) ->
      let seq = Core.Dse.explore uml in
      Pool.with_pool ~domains:4 (fun pool ->
          candidates_equal name seq (Core.Dse.explore ~pool uml)))
    cases

let wide_random_model_is_well_formed () =
  let uml = Cs.Random_models.wide ~seed:2 ~branches:3 ~depth:2 in
  check Alcotest.int "threads" (2 + (3 * 2))
    (List.length (Umlfront_uml.Model.threads uml));
  check Alcotest.(list string) "validates" []
    (List.map
       (fun (i : Umlfront_uml.Validate.issue) -> i.Umlfront_uml.Validate.what)
       (Umlfront_uml.Validate.check uml));
  (* the SDF level structure is as wide as the branch count *)
  let caam = (Core.Flow.run ~strategy:Core.Flow.Infer_linear uml).Core.Flow.caam in
  let lvls = Exec.levels (Sdf.of_model caam) in
  let widest = List.fold_left (fun acc l -> max acc (List.length l)) 0 lvls in
  check Alcotest.bool "widest level >= branches" true (widest >= 3)

let suite =
  [
    ( "parallel",
      [
        test "pool map matches List.map across chunkings" pool_map_matches_list_map;
        test "pool map preserves order" pool_preserves_order;
        test "sequential pool never spawns" sequential_pool_never_spawns;
        test "pool reuse across batches" pool_reuse_across_batches;
        test "exception from a worker propagates (earliest input)"
          exception_propagates_earliest;
        test "parallel_for covers all indices exactly once"
          parallel_for_covers_all_indices;
        test "nested map degrades to sequential" nested_map_degrades_to_sequential;
        test "map_array matches Array.map" map_array_matches;
        qcheck_map_is_list_map;
        test "levels partition the firing order" levels_partition_firing_order;
        test "levels raise Deadlock on zero-delay cycles"
          levels_deadlock_on_zero_delay_cycle;
        test "parallel DSE sweep is bit-identical to sequential"
          dse_parallel_sweep_is_deterministic;
        test "wide random model is well-formed and wide"
          wide_random_model_is_well_formed;
      ] );
  ]
