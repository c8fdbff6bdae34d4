module G = Umlfront_taskgraph.Graph
module Algo = Umlfront_taskgraph.Algo
module C = Umlfront_taskgraph.Clustering
module Lc = Umlfront_taskgraph.Linear_clustering
module Dsc = Umlfront_taskgraph.Dsc
module Ez = Umlfront_taskgraph.Edge_zeroing
module Baselines = Umlfront_taskgraph.Baselines
module Gen = Umlfront_taskgraph.Generator

let check = Alcotest.check
let test name f = Alcotest.test_case name `Quick f

let diamond () =
  (* a -> b, a -> c, b -> d, c -> d; classic fork-join. *)
  G.of_lists
    ~nodes:[ ("a", 2.0); ("b", 3.0); ("c", 1.0); ("d", 2.0) ]
    ~edges:[ ("a", "b", 4.0); ("a", "c", 1.0); ("b", "d", 4.0); ("c", "d", 1.0) ]

let cyclic () =
  G.of_lists
    ~nodes:[ ("x", 1.0); ("y", 1.0); ("z", 1.0) ]
    ~edges:[ ("x", "y", 1.0); ("y", "z", 1.0); ("z", "x", 1.0) ]

let graph_tests =
  [
    test "nodes in insertion order" (fun () ->
        check Alcotest.(list string) "order" [ "a"; "b"; "c"; "d" ] (G.nodes (diamond ())));
    test "succs and preds" (fun () ->
        let g = diamond () in
        check Alcotest.(list string) "succs a" [ "b"; "c" ] (G.succs g "a");
        check Alcotest.(list string) "preds d" [ "b"; "c" ] (G.preds g "d"));
    test "edge weight accumulates on re-add" (fun () ->
        let g = diamond () in
        G.add_edge g ~weight:2.5 "a" "b";
        check (Alcotest.float 1e-9) "acc" 6.5 (G.edge_weight g "a" "b"));
    test "add_node re-weights" (fun () ->
        let g = diamond () in
        G.add_node g ~weight:9.0 "a";
        check (Alcotest.float 1e-9) "w" 9.0 (G.node_weight g "a");
        check Alcotest.int "no dup" 4 (G.node_count g));
    test "remove_edge" (fun () ->
        let g = diamond () in
        G.remove_edge g "a" "b";
        check Alcotest.bool "gone" false (G.mem_edge g "a" "b");
        check Alcotest.int "count" 3 (G.edge_count g));
    test "transpose flips edges" (fun () ->
        let t = G.transpose (diamond ()) in
        check Alcotest.bool "flipped" true (G.mem_edge t "b" "a");
        check Alcotest.bool "not original" false (G.mem_edge t "a" "b"));
    test "copy is independent" (fun () ->
        let g = diamond () in
        let g' = G.copy g in
        G.remove_edge g' "a" "b";
        check Alcotest.bool "original intact" true (G.mem_edge g "a" "b"));
    test "total edge weight" (fun () ->
        check (Alcotest.float 1e-9) "sum" 10.0 (G.total_edge_weight (diamond ())));
  ]

let topo_is_valid g order =
  let pos = List.mapi (fun i n -> (n, i)) order in
  List.for_all
    (fun (s, d, _) -> List.assoc s pos < List.assoc d pos)
    (G.edges g)
  && List.length order = G.node_count g

let algo_tests =
  [
    test "topological sort valid on diamond" (fun () ->
        let g = diamond () in
        check Alcotest.bool "valid" true (topo_is_valid g (Algo.topological_sort g)));
    test "cycle raises with a real cycle" (fun () ->
        let g = cyclic () in
        match Algo.topological_sort g with
        | exception Algo.Cycle cycle ->
            check Alcotest.bool "non-empty" true (cycle <> []);
            (* consecutive nodes connected, last wraps to first *)
            let rec consecutive = function
              | a :: (b :: _ as rest) -> G.mem_edge g a b && consecutive rest
              | [ last ] -> G.mem_edge g last (List.hd cycle)
              | [] -> true
            in
            check Alcotest.bool "edges exist" true (consecutive cycle)
        | _ -> Alcotest.fail "expected Cycle");
    test "is_acyclic" (fun () ->
        check Alcotest.bool "diamond" true (Algo.is_acyclic (diamond ()));
        check Alcotest.bool "cyclic" false (Algo.is_acyclic (cyclic ())));
    test "acyclic_view drops exactly the back edges" (fun () ->
        let g = cyclic () in
        let back = Algo.all_back_edges g in
        let v = Umlfront_core.Allocation.acyclic_view g in
        let weighted g = List.map (fun n -> (n, G.node_weight g n)) (G.nodes g) in
        let edge = Alcotest.(triple string string (float 0.)) in
        check Alcotest.bool "a back edge to drop" true (back <> []);
        check Alcotest.bool "acyclic" true (Algo.is_acyclic v);
        check Alcotest.(list (pair string (float 0.))) "nodes and weights" (weighted g)
          (weighted v);
        check (Alcotest.list edge) "every other edge"
          (List.filter (fun (s, d, _) -> not (List.mem (s, d) back)) (G.edges g))
          (G.edges v));
    test "acyclic_view keeps an acyclic graph" (fun () ->
        let g = diamond () in
        let v = Umlfront_core.Allocation.acyclic_view g in
        check Alcotest.(list string) "nodes" (G.nodes g) (G.nodes v);
        check Alcotest.(list (triple string string (float 0.))) "edges" (G.edges g)
          (G.edges v));
    test "sources and sinks" (fun () ->
        let g = diamond () in
        check Alcotest.(list string) "sources" [ "a" ] (Algo.sources g);
        check Alcotest.(list string) "sinks" [ "d" ] (Algo.sinks g));
    test "top_level hand computed" (fun () ->
        let tl = Algo.top_level (diamond ()) in
        check (Alcotest.float 1e-9) "a" 0.0 (tl "a");
        check (Alcotest.float 1e-9) "b" 6.0 (tl "b");
        check (Alcotest.float 1e-9) "c" 3.0 (tl "c");
        (* via b: 6 + 3 + 4 = 13; via c: 3 + 1 + 1 = 5 *)
        check (Alcotest.float 1e-9) "d" 13.0 (tl "d"));
    test "bottom_level hand computed" (fun () ->
        let bl = Algo.bottom_level (diamond ()) in
        check (Alcotest.float 1e-9) "d" 2.0 (bl "d");
        check (Alcotest.float 1e-9) "b" 9.0 (bl "b");
        check (Alcotest.float 1e-9) "c" 4.0 (bl "c");
        check (Alcotest.float 1e-9) "a" 15.0 (bl "a"));
    test "critical path of diamond" (fun () ->
        let path, length = Algo.critical_path (diamond ()) in
        check Alcotest.(list string) "path" [ "a"; "b"; "d" ] path;
        check (Alcotest.float 1e-9) "length" 15.0 length);
    test "longest path between" (fun () ->
        let g = diamond () in
        check Alcotest.(option (list string)) "a to d" (Some [ "a"; "b"; "d" ])
          (Algo.longest_path_between g ~src:"a" ~dst:"d");
        check Alcotest.(option (list string)) "unreachable" None
          (Algo.longest_path_between g ~src:"d" ~dst:"a"));
    test "reachable" (fun () ->
        let g = diamond () in
        check Alcotest.int "from a" 3 (List.length (Algo.reachable g "a"));
        check Alcotest.int "from d" 0 (List.length (Algo.reachable g "d")));
  ]

let clustering_tests =
  [
    test "of_groups rejects overlap" (fun () ->
        match C.of_groups [ [ "a"; "b" ]; [ "b" ] ] with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument");
    test "cluster_of and same_cluster" (fun () ->
        let c = C.of_groups [ [ "a"; "b" ]; [ "c" ] ] in
        check Alcotest.int "a" 0 (C.cluster_of c "a");
        check Alcotest.bool "same" true (C.same_cluster c "a" "b");
        check Alcotest.bool "diff" false (C.same_cluster c "a" "c"));
    test "merge renumbers densely" (fun () ->
        let c = C.of_groups [ [ "a" ]; [ "b" ]; [ "c" ] ] in
        let merged = C.merge c 0 2 in
        check Alcotest.int "count" 2 (C.cluster_count merged);
        check Alcotest.bool "a with c" true (C.same_cluster merged "a" "c"));
    test "is_partition_of" (fun () ->
        let g = diamond () in
        check Alcotest.bool "ok" true
          (C.is_partition_of g (C.of_groups [ [ "a"; "b" ]; [ "c"; "d" ] ]));
        check Alcotest.bool "missing node" false
          (C.is_partition_of g (C.of_groups [ [ "a"; "b" ]; [ "c" ] ])));
    test "is_linear distinguishes chains from antichains" (fun () ->
        let g = diamond () in
        check Alcotest.bool "chain" true (C.is_linear g (C.of_groups [ [ "a"; "b"; "d" ]; [ "c" ] ]));
        check Alcotest.bool "parallel pair" false
          (C.is_linear g (C.of_groups [ [ "b"; "c" ]; [ "a" ]; [ "d" ] ])));
    test "inter and intra volume partition total" (fun () ->
        let g = diamond () in
        let c = C.of_groups [ [ "a"; "b"; "d" ]; [ "c" ] ] in
        check (Alcotest.float 1e-9) "inter" 2.0 (C.inter_cluster_volume g c);
        check (Alcotest.float 1e-9) "intra" 8.0 (C.intra_cluster_volume g c));
    test "sequential time" (fun () ->
        check (Alcotest.float 1e-9) "sum" 8.0 (C.sequential_time (diamond ())));
    test "schedule single cluster = sequential" (fun () ->
        let g = diamond () in
        check (Alcotest.float 1e-9) "seq" (C.sequential_time g)
          (C.parallel_time g (Baselines.single_cluster g)));
    test "schedule hand computed, one per node" (fun () ->
        (* a: 0-2; b: ready 2+4=6, 6-9; c: ready 3, 3-4; d: ready max(9+4, 4+1)=13, 13-15 *)
        let g = diamond () in
        check (Alcotest.float 1e-9) "makespan" 15.0
          (C.parallel_time g (Baselines.one_per_node g)));
    test "schedule respects processor exclusivity" (fun () ->
        let g = diamond () in
        let c = C.of_groups [ [ "b"; "c" ]; [ "a" ]; [ "d" ] ] in
        let sched = C.schedule g c in
        let entries p =
          List.filter (fun (s : C.scheduled) -> s.C.processor = p) sched
        in
        List.iter
          (fun p ->
            let sorted =
              List.sort (fun a b -> Float.compare a.C.start b.C.start) (entries p)
            in
            let rec no_overlap = function
              | a :: (b :: _ as rest) ->
                  check Alcotest.bool "no overlap" true (a.C.finish <= b.C.start +. 1e-9);
                  no_overlap rest
              | [ _ ] | [] -> ()
            in
            no_overlap sorted)
          [ 0; 1; 2 ]);
    test "critical_path_cluster" (fun () ->
        let g = diamond () in
        check Alcotest.bool "together" true
          (C.critical_path_cluster g (C.of_groups [ [ "a"; "b"; "d" ]; [ "c" ] ]));
        check Alcotest.bool "split" false
          (C.critical_path_cluster g (Baselines.one_per_node g)));
  ]

let lc_tests =
  [
    test "diamond: critical path in first cluster" (fun () ->
        let g = diamond () in
        let c = Lc.run g in
        check Alcotest.(list (list string)) "groups" [ [ "a"; "b"; "d" ]; [ "c" ] ]
          (C.groups c));
    test "cyclic graph rejected" (fun () ->
        match Lc.run (cyclic ()) with
        | exception Algo.Cycle _ -> ()
        | _ -> Alcotest.fail "expected Cycle");
    test "chain collapses to one cluster" (fun () ->
        let g = Gen.chain ~n:10 in
        check Alcotest.int "one" 1 (C.cluster_count (Lc.run g)));
    test "bounded caps cluster count" (fun () ->
        let g = Gen.layered ~seed:7 ~layers:5 ~width:5 ~edge_probability:0.4 ~ccr:1.0 () in
        let c = Lc.run_bounded ~max_clusters:3 g in
        check Alcotest.bool "<= 3" true (C.cluster_count c <= 3);
        check Alcotest.bool "partition" true (C.is_partition_of g c));
    test "fork-join keeps branches apart" (fun () ->
        let g = Gen.fork_join ~seed:3 ~branches:4 ~depth:3 ~ccr:1.0 () in
        let c = Lc.run g in
        check Alcotest.bool ">= branches" true (C.cluster_count c >= 4));
  ]

let arbitrary_dag =
  QCheck.make
    ~print:(fun (seed, layers, width) -> Printf.sprintf "seed=%d layers=%d width=%d" seed layers width)
    QCheck.Gen.(triple (int_bound 1000) (1 -- 6) (1 -- 5))

let dag_of (seed, layers, width) =
  Gen.layered ~seed ~layers ~width ~edge_probability:0.5 ~ccr:1.0 ()

let property_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"generator produces DAGs" ~count:100 arbitrary_dag
         (fun params -> Algo.is_acyclic (dag_of params)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"topological sort is valid" ~count:100 arbitrary_dag
         (fun params ->
           let g = dag_of params in
           topo_is_valid g (Algo.topological_sort g)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"linear clustering is a linear partition" ~count:100
         arbitrary_dag
         (fun params ->
           let g = dag_of params in
           let c = Lc.run g in
           C.is_partition_of g c && C.is_linear g c));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"linear clustering keeps critical path together"
         ~count:100 arbitrary_dag
         (fun params ->
           let g = dag_of params in
           C.critical_path_cluster g (Lc.run g)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"dsc produces a partition" ~count:100 arbitrary_dag
         (fun params ->
           let g = dag_of params in
           C.is_partition_of g (Dsc.run g)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"edge zeroing never beats nothing but never hurts"
         ~count:50 arbitrary_dag
         (fun params ->
           let g = dag_of params in
           C.parallel_time g (Ez.run g)
           <= C.parallel_time g (Baselines.one_per_node g) +. 1e-6));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"schedule start times respect dependencies" ~count:50
         arbitrary_dag
         (fun params ->
           let g = dag_of params in
           let c = Lc.run g in
           let sched = C.schedule g c in
           let finish n =
             (List.find (fun (s : C.scheduled) -> s.C.task = n) sched).C.finish
           in
           List.for_all
             (fun (s : C.scheduled) ->
               List.for_all
                 (fun p ->
                   let comm =
                     if C.same_cluster c p s.C.task then 0.0 else G.edge_weight g p s.C.task
                   in
                   s.C.start +. 1e-9 >= finish p +. comm)
                 (G.preds g s.C.task))
             sched));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"baselines are partitions" ~count:50 arbitrary_dag
         (fun params ->
           let g = dag_of params in
           C.is_partition_of g (Baselines.single_cluster g)
           && C.is_partition_of g (Baselines.one_per_node g)
           && C.is_partition_of g (Baselines.round_robin ~cpus:3 g)
           && C.is_partition_of g (Baselines.random ~seed:1 ~cpus:3 g)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"ccr scaling is honoured" ~count:50
         QCheck.(pair (QCheck.make QCheck.Gen.(int_bound 1000)) (QCheck.make QCheck.Gen.(2 -- 5)))
         (fun (seed, layers) ->
           let g =
             Gen.layered ~seed ~layers ~width:4 ~edge_probability:0.6 ~ccr:2.0 ()
           in
           G.edge_count g = 0
           || Float.abs ((G.total_edge_weight g /. C.sequential_time g) -. 2.0) < 1e-6));
  ]

(* Exhaustive reference: longest path by enumerating all paths (small
   graphs only). *)
let brute_force_longest g =
  let rec best_from node =
    let tail =
      List.fold_left
        (fun acc s -> Float.max acc (G.edge_weight g node s +. best_from s))
        0.0 (G.succs g node)
    in
    G.node_weight g node +. tail
  in
  List.fold_left (fun acc n -> Float.max acc (best_from n)) 0.0 (G.nodes g)

let brute_force_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"critical path length matches brute force" ~count:100
         (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1000))
         (fun seed ->
           let g =
             Gen.layered ~seed ~layers:3 ~width:3 ~edge_probability:0.6 ~ccr:1.0 ()
           in
           let _, length = Algo.critical_path g in
           Float.abs (length -. brute_force_longest g) < 1e-6));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"critical path nodes realize the reported length" ~count:100
         (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1000))
         (fun seed ->
           let g =
             Gen.layered ~seed ~layers:4 ~width:3 ~edge_probability:0.5 ~ccr:1.0 ()
           in
           let path, length = Algo.critical_path g in
           let rec walk = function
             | a :: (b :: _ as rest) ->
                 G.node_weight g a +. G.edge_weight g a b +. walk rest
             | [ last ] -> G.node_weight g last
             | [] -> 0.0
           in
           Float.abs (walk path -. length) < 1e-6));
  ]

let suite =
  [
    ("taskgraph:graph", graph_tests);
    ("taskgraph:brute_force", brute_force_tests);
    ("taskgraph:algo", algo_tests);
    ("taskgraph:clustering", clustering_tests);
    ("taskgraph:linear_clustering", lc_tests);
    ("taskgraph:properties", property_tests);
  ]
