module U = Umlfront_uml
module G = Umlfront_taskgraph.Graph
module Clustering = Umlfront_taskgraph.Clustering
module Lc = Umlfront_taskgraph.Linear_clustering

type result = {
  partitioned : U.Model.t;
  thread_of_call : (string * string) list;
  cut_tokens : (string * string * string) list;
}

type call = {
  call_id : string;
  call_msg : U.Sequence.message;
  call_kind : [ `Functional | `Io_read | `Io_write ];
}

let single_thread uml =
  match U.Model.threads uml with
  | [ t ] -> t
  | threads ->
      invalid_arg
        (Printf.sprintf "partitioning: expected exactly one thread, found %d"
           (List.length threads))

let calls_of uml thread =
  U.Model.behaviours uml
  |> List.concat_map (fun (sd : U.Sequence.t) ->
         List.mapi
           (fun i (m : U.Sequence.message) ->
             if not (String.equal m.U.Sequence.msg_from thread) then None
             else
               let id =
                 Printf.sprintf "%s:%d:%s" sd.U.Sequence.sd_name i
                   m.U.Sequence.msg_operation
               in
               match U.Model.kind_of_instance uml m.U.Sequence.msg_to with
               | Some U.Classifier.Passive | Some U.Classifier.Platform ->
                   Some { call_id = id; call_msg = m; call_kind = `Functional }
               | Some U.Classifier.Io_device ->
                   let kind =
                     if U.Sequence.is_io_read m then `Io_read else `Io_write
                   in
                   Some { call_id = id; call_msg = m; call_kind = kind }
               | Some U.Classifier.Thread | None -> None)
           sd.U.Sequence.sd_messages
         |> List.filter_map Fun.id)

let token_bytes (a : U.Sequence.arg) = max 1 (U.Datatype.size_bytes a.U.Sequence.arg_type)

let producers calls =
  (* token -> producing functional call id (first producer wins) *)
  let table = Hashtbl.create 16 in
  List.iter
    (fun c ->
      if c.call_kind = `Functional then
        match c.call_msg.U.Sequence.msg_result with
        | Some r ->
            if not (Hashtbl.mem table r.U.Sequence.arg_name) then
              Hashtbl.replace table r.U.Sequence.arg_name (c.call_id, r)
        | None -> ())
    calls;
  table

let call_graph uml =
  let thread = single_thread uml in
  let calls = calls_of uml thread in
  let g = G.create () in
  List.iter
    (fun c -> if c.call_kind = `Functional then G.add_node g c.call_id)
    calls;
  let produced = producers calls in
  List.iter
    (fun c ->
      if c.call_kind = `Functional then
        List.iter
          (fun (a : U.Sequence.arg) ->
            match Hashtbl.find_opt produced a.U.Sequence.arg_name with
            | Some (producer_id, _) when producer_id <> c.call_id ->
                G.add_edge g ~weight:(float_of_int (token_bytes a)) producer_id c.call_id
            | Some _ | None -> ())
          c.call_msg.U.Sequence.msg_args)
    calls;
  g

let run ?threads uml =
  let original = single_thread uml in
  let calls = calls_of uml original in
  let functional = List.filter (fun c -> c.call_kind = `Functional) calls in
  if functional = [] then invalid_arg "partitioning: model has no functional calls";
  let g = Allocation.acyclic_view (call_graph uml) in
  let clustering =
    match threads with
    | Some n -> Lc.run_bounded ~max_clusters:n g
    | None -> Lc.run g
  in
  let thread_name i = Printf.sprintf "%s%d" original i in
  let cluster_of_call id = Clustering.cluster_of clustering id in
  let thread_of_call =
    List.map (fun c -> (c.call_id, thread_name (cluster_of_call c.call_id))) functional
  in
  let produced = producers calls in
  (* IO reads join the cluster of their result's first consumer; IO
     writes the cluster of their argument's producer. *)
  let rec producer_cluster token =
    match Hashtbl.find_opt produced token with
    | Some (id, _) -> Some (cluster_of_call id)
    | None ->
        (* An IO read may be the producer; it lives with the cluster
           io_cluster assigns it, so its token can still be forwarded. *)
        calls
        |> List.find_opt (fun c ->
               c.call_kind = `Io_read
               &&
               match c.call_msg.U.Sequence.msg_result with
               | Some r -> String.equal r.U.Sequence.arg_name token
               | None -> false)
        |> Option.map io_cluster
  and io_cluster c =
    match c.call_kind with
    | `Io_read -> (
        match c.call_msg.U.Sequence.msg_result with
        | Some r ->
            let consumer =
              List.find_opt
                (fun fc ->
                  List.exists
                    (fun (a : U.Sequence.arg) ->
                      String.equal a.U.Sequence.arg_name r.U.Sequence.arg_name)
                    fc.call_msg.U.Sequence.msg_args)
                functional
            in
            Option.value (Option.map (fun fc -> cluster_of_call fc.call_id) consumer)
              ~default:0
        | None -> 0)
    | `Io_write -> (
        match c.call_msg.U.Sequence.msg_args with
        | a :: _ -> Option.value (producer_cluster a.U.Sequence.arg_name) ~default:0
        | [] -> 0)
    | `Functional -> cluster_of_call c.call_id
  in
  (* Inter-cluster token transfers. *)
  let cuts = Hashtbl.create 8 in
  List.iter
    (fun c ->
      let consumer_cluster = io_cluster c in
      List.iter
        (fun (a : U.Sequence.arg) ->
          match producer_cluster a.U.Sequence.arg_name with
          | Some p when p <> consumer_cluster ->
              Hashtbl.replace cuts (a.U.Sequence.arg_name, p, consumer_cluster) a
          | Some _ | None -> ())
        c.call_msg.U.Sequence.msg_args)
    calls;
  (* Rebuild the model. *)
  let n_clusters = Clustering.cluster_count clustering in
  let old_instances =
    List.filter
      (fun (i : U.Classifier.instance) ->
        not (String.equal i.U.Classifier.inst_name original))
      uml.U.Model.instances
  in
  (* New thread classes carry the Set operations they receive. *)
  let set_op token (a : U.Sequence.arg) =
    U.Operation.make ("Set_" ^ token)
      ~params:[ U.Operation.param ~dir:U.Operation.In token a.U.Sequence.arg_type ]
  in
  let receives i =
    Hashtbl.fold
      (fun (token, _, consumer) a acc ->
        if consumer = i then set_op token a :: acc else acc)
      cuts []
  in
  let new_thread_classes =
    List.init n_clusters (fun i ->
        U.Classifier.cls ~operations:(receives i) U.Classifier.Thread
          (thread_name i ^ "_cls"))
  in
  let new_thread_instances =
    List.init n_clusters (fun i ->
        { U.Classifier.inst_name = thread_name i; inst_class = thread_name i ^ "_cls" })
  in
  let old_classes =
    List.filter
      (fun (c : U.Classifier.cls) ->
        not (List.exists
               (fun (i : U.Classifier.instance) ->
                 String.equal i.U.Classifier.inst_name original
                 && String.equal i.U.Classifier.inst_class c.U.Classifier.cls_name)
               uml.U.Model.instances))
      uml.U.Model.classes
  in
  (* The partitioned behaviour: original calls re-homed, plus one Set
     per cut token appended (token wiring is order-independent). *)
  let rehomed =
    List.map
      (fun c ->
        { c.call_msg with U.Sequence.msg_from = thread_name (io_cluster c) })
      calls
  in
  let transfers =
    Hashtbl.fold
      (fun (token, p, consumer) (a : U.Sequence.arg) acc ->
        U.Sequence.message
          ~args:[ { a with U.Sequence.arg_name = token } ]
          ~from:(thread_name p) ~target:(thread_name consumer) ("Set_" ^ token)
        :: acc)
      cuts []
  in
  let sequences = [ U.Sequence.make "partitioned" (rehomed @ transfers) ] in
  let partitioned =
    U.Model.make
      ~classes:(old_classes @ new_thread_classes)
      ~instances:(old_instances @ new_thread_instances)
      ~sequences ~statecharts:uml.U.Model.statecharts
      (uml.U.Model.model_name ^ "_partitioned")
  in
  {
    partitioned;
    thread_of_call;
    cut_tokens =
      Hashtbl.fold
        (fun (token, p, consumer) _ acc ->
          (token, thread_name p, thread_name consumer) :: acc)
        cuts []
      |> List.sort compare;
  }
