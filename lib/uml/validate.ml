type issue = { where : string; what : string }

let pp_issue ppf i = Format.fprintf ppf "%s: %s" i.where i.what

let check model =
  let issues = ref [] in
  let blame where what = issues := { where; what } :: !issues in
  let check_message sd (m : Sequence.message) =
    (* Printed only for an issue: most messages have none. *)
    let blame what =
      blame (Printf.sprintf "%s: %s->%s.%s" sd m.msg_from m.msg_to m.msg_operation) what
    in
    let caller_kind = Model.kind_of_instance model m.msg_from in
    let callee_kind = Model.kind_of_instance model m.msg_to in
    if Model.find_instance model m.msg_from = None then
      blame (Printf.sprintf "unknown caller object %s" m.msg_from);
    if Model.find_instance model m.msg_to = None then
      blame (Printf.sprintf "unknown callee object %s" m.msg_to);
    (match (callee_kind, Model.operation_of_message model m) with
    | Some Classifier.Platform, _ -> ()
    | Some _, None ->
        blame
          (Printf.sprintf "operation %s not declared on class of %s" m.msg_operation
             m.msg_to)
    | Some _, Some op ->
        let formal_inputs = List.length (Operation.inputs op) in
        let actual = List.length m.msg_args in
        if formal_inputs <> actual then
          blame
            (Printf.sprintf "argument count mismatch: %d actual vs %d formal inputs"
               actual formal_inputs)
    | None, _ -> ());
    (match (caller_kind, callee_kind) with
    | Some Classifier.Thread, Some Classifier.Thread ->
        if not (Sequence.is_send m || Sequence.is_receive m) then
          blame "thread-to-thread call must use the Set/Get prefix convention"
    | _, Some Classifier.Io_device ->
        if not (Sequence.is_io_read m || Sequence.is_io_write m) then
          blame "call to an <<IO>> object must use the get/set prefix convention"
    | _, _ -> ())
  in
  List.iter
    (fun (sd : Sequence.t) -> List.iter (check_message sd.sd_name) sd.sd_messages)
    (Model.behaviours model);
  (* Deployment consistency *)
  (match Model.deployment model with
  | None -> ()
  | Some dep ->
      let nodes = Deployment.node_names dep in
      List.iter
        (fun thread ->
          match
            List.filter (fun (t, _) -> String.equal t thread) dep.Deployment.dep_allocation
          with
          | [] -> blame thread "thread not allocated to any processor"
          | [ (_, node) ] ->
              if not (List.mem node nodes) then
                blame thread (Printf.sprintf "allocated to undeclared node %s" node)
          | _ :: _ :: _ -> blame thread "thread allocated more than once")
        (Model.threads model);
      List.iter
        (fun (thread, _) ->
          if Model.kind_of_instance model thread <> Some Classifier.Thread then
            blame thread "allocation entry does not name a thread instance")
        dep.Deployment.dep_allocation);
  (* Token discipline, order-independent so feedback loops are allowed
     (they are broken later by UnitDelay insertion, §4.2.2), and
     model-global because the diagrams are partial views of one
     interaction (the mapping pools them): every consumed token must be
     produced somewhere, by a result binding or a Set delivery. *)
  let behaviours = Model.behaviours model in
  let all_messages =
    List.concat_map (fun (sd : Sequence.t) -> sd.sd_messages) behaviours
  in
  let produced = Hashtbl.create 8 in
  let produce (a : Sequence.arg) = Hashtbl.replace produced a.arg_name () in
  List.iter
    (fun (m : Sequence.message) ->
      Option.iter produce m.Sequence.msg_result;
      List.iter produce m.Sequence.msg_outs;
      if Sequence.is_send m then List.iter produce m.Sequence.msg_args)
    all_messages;
  List.iter
    (fun (m : Sequence.message) ->
      List.iter
        (fun (a : Sequence.arg) ->
          if not (Hashtbl.mem produced a.arg_name) then
            blame m.msg_from
              (Printf.sprintf "token %s consumed by %s is never produced" a.arg_name
                 m.msg_operation))
        m.Sequence.msg_args)
    all_messages;
  (* Per-thread availability: the mapping wires a thread's consumers
     only from ports available inside that thread — its own results
     (calls, Gets, IO reads) and Set deliveries addressed to it.  A
     token a thread consumes without any of those is a dangling input
     in the generated model. *)
  let check_thread_availability thread =
    let available = Hashtbl.create 8 in
    let provide (a : Sequence.arg) = Hashtbl.replace available a.arg_name () in
    List.iter
      (fun (m : Sequence.message) ->
        if String.equal m.msg_from thread then (
          Option.iter provide m.msg_result;
          List.iter provide m.msg_outs);
        if String.equal m.msg_to thread && Sequence.is_send m then
          List.iter provide m.msg_args)
      all_messages;
    List.iter
      (fun (m : Sequence.message) ->
        if String.equal m.msg_from thread then
          List.iter
            (fun (a : Sequence.arg) ->
              if not (Hashtbl.mem available a.arg_name) then
                blame thread
                  (Printf.sprintf
                     "token %s consumed by %s is not available in this thread (no local \
production, Get, IO read or Set delivery)"
                     a.arg_name m.msg_operation))
            m.msg_args)
      all_messages
  in
  List.iter check_thread_availability (Model.threads model);
  (* State machines must be well-formed. *)
  List.iter
    (fun (sc : Statechart.t) ->
      List.iter
        (fun (i : Statechart.issue) ->
          blame
            (sc.Statechart.sc_name ^ "/" ^ i.Statechart.where)
            i.Statechart.what)
        (Statechart.check sc))
    model.Model.statecharts;
  (* Activity diagrams must themselves be well-formed and owned by a
     declared thread. *)
  List.iter
    (fun (a : Activity.t) ->
      List.iter
        (fun (i : Activity.issue) -> blame i.Activity.where i.Activity.what)
        (Activity.check a);
      if Model.kind_of_instance model a.Activity.act_owner <> Some Classifier.Thread then
        blame a.Activity.act_diagram_name
          (Printf.sprintf "activity owner %s is not a thread" a.Activity.act_owner))
    model.Model.activities;
  List.rev !issues

let raise_first = function
  | [] -> ()
  | i :: _ ->
      invalid_arg (Printf.sprintf "UML model not well-formed: %s: %s" i.where i.what)
