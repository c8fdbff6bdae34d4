module Meta = Umlfront_metamodel.Meta
module Mm = Umlfront_metamodel.Mmodel
module U = Umlfront_uml
module S = Umlfront_simulink.System
module B = Umlfront_simulink.Block
module Smodel = Umlfront_simulink.Model
module Fsm = Umlfront_fsm.Fsm

let uml_mm =
  Meta.create ~name:"uml"
    [
      Meta.metaclass "Model"
        ~attributes:[ Meta.attribute ~required:true "name" Meta.T_string ]
        ~references:
          [
            Meta.reference ~containment:true ~many:true "classes" "Class";
            Meta.reference ~containment:true ~many:true "objects" "Object";
            Meta.reference ~containment:true ~many:true "deployments" "Deployment";
            Meta.reference ~containment:true ~many:true "sequences" "SequenceDiagram";
            Meta.reference ~containment:true ~many:true "statecharts" "Statechart";
          ];
      Meta.metaclass "Class"
        ~attributes:
          [
            Meta.attribute ~required:true "name" Meta.T_string;
            Meta.attribute "kind"
              (Meta.T_enum [ "thread"; "passive"; "platform"; "io" ]);
            Meta.attribute "stereotypes" Meta.T_string;
          ]
        ~references:[ Meta.reference ~containment:true ~many:true "operations" "Operation" ];
      Meta.metaclass "Operation"
        ~attributes:[ Meta.attribute ~required:true "name" Meta.T_string ]
        ~references:[ Meta.reference ~containment:true ~many:true "parameters" "Parameter" ];
      Meta.metaclass "Parameter"
        ~attributes:
          [
            Meta.attribute ~required:true "name" Meta.T_string;
            Meta.attribute "direction" (Meta.T_enum [ "in"; "out"; "inout"; "return" ]);
            Meta.attribute "type" Meta.T_string;
          ];
      Meta.metaclass "Object"
        ~attributes:[ Meta.attribute ~required:true "name" Meta.T_string ]
        ~references:[ Meta.reference "class" "Class" ];
      Meta.metaclass "Deployment"
        ~attributes:[ Meta.attribute ~required:true "name" Meta.T_string ]
        ~references:
          [
            Meta.reference ~containment:true ~many:true "nodes" "ProcessorNode";
            Meta.reference ~containment:true ~many:true "allocations" "Allocation";
          ];
      Meta.metaclass "ProcessorNode"
        ~attributes:[ Meta.attribute ~required:true "name" Meta.T_string ];
      Meta.metaclass "Allocation"
        ~references:
          [ Meta.reference "thread" "Object"; Meta.reference "node" "ProcessorNode" ];
      Meta.metaclass "SequenceDiagram"
        ~attributes:[ Meta.attribute ~required:true "name" Meta.T_string ]
        ~references:[ Meta.reference ~containment:true ~many:true "messages" "Message" ];
      Meta.metaclass "Message"
        ~attributes:
          [
            Meta.attribute ~required:true "operation" Meta.T_string;
            Meta.attribute "result" Meta.T_string;
            Meta.attribute "resultType" Meta.T_string;
          ]
        ~references:
          [
            Meta.reference "from" "Object";
            Meta.reference "to" "Object";
            Meta.reference ~containment:true ~many:true "arguments" "Argument";
          ];
      Meta.metaclass "Argument"
        ~attributes:
          [
            Meta.attribute ~required:true "name" Meta.T_string;
            Meta.attribute "type" Meta.T_string;
          ];
      Meta.metaclass "Statechart"
        ~attributes:[ Meta.attribute ~required:true "name" Meta.T_string ]
        ~references:
          [
            Meta.reference ~containment:true ~many:true "states" "ChartState";
            Meta.reference ~containment:true ~many:true "transitions" "ChartTransition";
          ];
      Meta.metaclass "ChartState"
        ~attributes:
          [
            Meta.attribute ~required:true "name" Meta.T_string;
            Meta.attribute "kind"
              (Meta.T_enum [ "simple"; "initial"; "final"; "composite" ]);
            Meta.attribute "entry" Meta.T_string;
            Meta.attribute "exit" Meta.T_string;
          ]
        ~references:[ Meta.reference ~containment:true ~many:true "substates" "ChartState" ];
      Meta.metaclass "ChartTransition"
        ~attributes:
          [
            Meta.attribute "trigger" Meta.T_string;
            Meta.attribute "guard" Meta.T_string;
            Meta.attribute "effect" Meta.T_string;
          ]
        ~references:
          [ Meta.reference "source" "ChartState"; Meta.reference "target" "ChartState" ];
    ]

let simulink_mm =
  Meta.create ~name:"simulink"
    [
      Meta.metaclass "Model"
        ~attributes:
          [
            Meta.attribute ~required:true "name" Meta.T_string;
            Meta.attribute "solver" Meta.T_string;
            Meta.attribute "stopTime" Meta.T_float;
          ]
        ~references:[ Meta.reference ~containment:true "root" "System" ];
      Meta.metaclass "System"
        ~attributes:[ Meta.attribute ~required:true "name" Meta.T_string ]
        ~references:
          [
            Meta.reference ~containment:true ~many:true "blocks" "Block";
            Meta.reference ~containment:true ~many:true "lines" "Line";
          ];
      Meta.metaclass "Block"
        ~attributes:
          [
            Meta.attribute ~required:true "name" Meta.T_string;
            Meta.attribute ~required:true "blockType" Meta.T_string;
          ]
        ~references:
          [
            Meta.reference ~containment:true ~many:true "params" "Param";
            Meta.reference ~containment:true "system" "System";
          ];
      Meta.metaclass "Param"
        ~attributes:
          [
            Meta.attribute ~required:true "key" Meta.T_string;
            Meta.attribute "stringValue" Meta.T_string;
            Meta.attribute "intValue" Meta.T_int;
            Meta.attribute "floatValue" Meta.T_float;
            Meta.attribute "boolValue" Meta.T_bool;
          ];
      Meta.metaclass "Line"
        ~attributes:
          [
            Meta.attribute ~required:true "srcBlock" Meta.T_string;
            Meta.attribute ~required:true "srcPort" Meta.T_int;
            Meta.attribute ~required:true "dstBlock" Meta.T_string;
            Meta.attribute ~required:true "dstPort" Meta.T_int;
          ];
    ]

let fsm_mm =
  Meta.create ~name:"fsm"
    [
      Meta.metaclass "Fsm"
        ~attributes:[ Meta.attribute ~required:true "name" Meta.T_string ]
        ~references:
          [
            Meta.reference ~containment:true ~many:true "states" "FsmState";
            Meta.reference ~containment:true ~many:true "transitions" "FsmTransition";
            Meta.reference "initial" "FsmState";
          ];
      Meta.metaclass "FsmState"
        ~attributes:
          [
            Meta.attribute ~required:true "name" Meta.T_string;
            Meta.attribute "final" Meta.T_bool;
          ];
      Meta.metaclass "FsmTransition"
        ~attributes:
          [
            Meta.attribute ~required:true "event" Meta.T_string;
            Meta.attribute "guard" Meta.T_string;
            Meta.attribute "actions" Meta.T_string;  (* ';'-separated *)
          ]
        ~references:
          [ Meta.reference "source" "FsmState"; Meta.reference "target" "FsmState" ];
    ]

(* ------------------------------------------------------------------ *)
(* UML bridge (one direction: the flow consumes UML, never emits it)  *)
(* ------------------------------------------------------------------ *)

let uml_to_mmodel (uml : U.Model.t) =
  let m = Mm.create uml_mm in
  let model = Mm.new_object m "Model" in
  Mm.set_string m model "name" uml.U.Model.model_name;
  let class_obj = Hashtbl.create 8 in
  List.iter
    (fun (c : U.Classifier.cls) ->
      let o = Mm.new_object m "Class" in
      Mm.set_string m o "name" c.U.Classifier.cls_name;
      Mm.set_string m o "kind" (U.Classifier.kind_to_string c.U.Classifier.cls_kind);
      Mm.set_string m o "stereotypes"
        (String.concat ","
           (List.map U.Stereotype.to_string c.U.Classifier.cls_stereotypes));
      List.iter
        (fun (op : U.Operation.t) ->
          let oo = Mm.new_object m "Operation" in
          Mm.set_string m oo "name" op.U.Operation.op_name;
          List.iter
            (fun (p : U.Operation.parameter) ->
              let po = Mm.new_object m "Parameter" in
              Mm.set_string m po "name" p.U.Operation.param_name;
              Mm.set_string m po "direction"
                (U.Operation.direction_to_string p.U.Operation.param_dir);
              Mm.set_string m po "type" (U.Datatype.to_string p.U.Operation.param_type);
              Mm.add_ref m ~src:oo "parameters" ~dst:po)
            op.U.Operation.op_params;
          Mm.add_ref m ~src:o "operations" ~dst:oo)
        c.U.Classifier.cls_operations;
      Hashtbl.replace class_obj c.U.Classifier.cls_name o;
      Mm.add_ref m ~src:model "classes" ~dst:o)
    uml.U.Model.classes;
  let instance_obj = Hashtbl.create 8 in
  List.iter
    (fun (i : U.Classifier.instance) ->
      let o = Mm.new_object m "Object" in
      Mm.set_string m o "name" i.U.Classifier.inst_name;
      (match Hashtbl.find_opt class_obj i.U.Classifier.inst_class with
      | Some c -> Mm.add_ref m ~src:o "class" ~dst:c
      | None -> ());
      Hashtbl.replace instance_obj i.U.Classifier.inst_name o;
      Mm.add_ref m ~src:model "objects" ~dst:o)
    uml.U.Model.instances;
  List.iter
    (fun (d : U.Deployment.t) ->
      let o = Mm.new_object m "Deployment" in
      Mm.set_string m o "name" d.U.Deployment.dep_name;
      let node_obj = Hashtbl.create 4 in
      List.iter
        (fun (n : U.Deployment.node) ->
          let no = Mm.new_object m "ProcessorNode" in
          Mm.set_string m no "name" n.U.Deployment.node_name;
          Hashtbl.replace node_obj n.U.Deployment.node_name no;
          Mm.add_ref m ~src:o "nodes" ~dst:no)
        d.U.Deployment.dep_nodes;
      List.iter
        (fun (thread, node) ->
          let ao = Mm.new_object m "Allocation" in
          (match Hashtbl.find_opt instance_obj thread with
          | Some t -> Mm.add_ref m ~src:ao "thread" ~dst:t
          | None -> ());
          (match Hashtbl.find_opt node_obj node with
          | Some n -> Mm.add_ref m ~src:ao "node" ~dst:n
          | None -> ());
          Mm.add_ref m ~src:o "allocations" ~dst:ao)
        d.U.Deployment.dep_allocation;
      Mm.add_ref m ~src:model "deployments" ~dst:o)
    uml.U.Model.deployments;
  List.iter
    (fun (sd : U.Sequence.t) ->
      let o = Mm.new_object m "SequenceDiagram" in
      Mm.set_string m o "name" sd.U.Sequence.sd_name;
      List.iter
        (fun (msg : U.Sequence.message) ->
          let mo = Mm.new_object m "Message" in
          Mm.set_string m mo "operation" msg.U.Sequence.msg_operation;
          (match msg.U.Sequence.msg_result with
          | Some r ->
              Mm.set_string m mo "result" r.U.Sequence.arg_name;
              Mm.set_string m mo "resultType" (U.Datatype.to_string r.U.Sequence.arg_type)
          | None -> ());
          (match Hashtbl.find_opt instance_obj msg.U.Sequence.msg_from with
          | Some f -> Mm.add_ref m ~src:mo "from" ~dst:f
          | None -> ());
          (match Hashtbl.find_opt instance_obj msg.U.Sequence.msg_to with
          | Some t -> Mm.add_ref m ~src:mo "to" ~dst:t
          | None -> ());
          List.iter
            (fun (a : U.Sequence.arg) ->
              let ao = Mm.new_object m "Argument" in
              Mm.set_string m ao "name" a.U.Sequence.arg_name;
              Mm.set_string m ao "type" (U.Datatype.to_string a.U.Sequence.arg_type);
              Mm.add_ref m ~src:mo "arguments" ~dst:ao)
            msg.U.Sequence.msg_args;
          Mm.add_ref m ~src:o "messages" ~dst:mo)
        sd.U.Sequence.sd_messages;
      Mm.add_ref m ~src:model "sequences" ~dst:o)
    uml.U.Model.sequences;
  List.iter
    (fun (sc : U.Statechart.t) ->
      let o = Mm.new_object m "Statechart" in
      Mm.set_string m o "name" sc.U.Statechart.sc_name;
      let state_obj = Hashtbl.create 8 in
      let kind_string = function
        | U.Statechart.Simple -> "simple"
        | U.Statechart.Initial -> "initial"
        | U.Statechart.Final -> "final"
        | U.Statechart.Composite -> "composite"
      in
      let rec add_state parent (s : U.Statechart.state) =
        let so = Mm.new_object m "ChartState" in
        Mm.set_string m so "name" s.U.Statechart.st_name;
        Mm.set_string m so "kind" (kind_string s.U.Statechart.st_kind);
        Option.iter (Mm.set_string m so "entry") s.U.Statechart.st_entry;
        Option.iter (Mm.set_string m so "exit") s.U.Statechart.st_exit;
        Hashtbl.replace state_obj s.U.Statechart.st_name so;
        (match parent with
        | Some p -> Mm.add_ref m ~src:p "substates" ~dst:so
        | None -> Mm.add_ref m ~src:o "states" ~dst:so);
        List.iter (add_state (Some so)) s.U.Statechart.st_children
      in
      List.iter (add_state None) sc.U.Statechart.sc_states;
      List.iter
        (fun (tr : U.Statechart.transition) ->
          let to_ = Mm.new_object m "ChartTransition" in
          Option.iter (Mm.set_string m to_ "trigger") tr.U.Statechart.tr_trigger;
          Option.iter (Mm.set_string m to_ "guard") tr.U.Statechart.tr_guard;
          Option.iter (Mm.set_string m to_ "effect") tr.U.Statechart.tr_effect;
          (match Hashtbl.find_opt state_obj tr.U.Statechart.tr_source with
          | Some s -> Mm.add_ref m ~src:to_ "source" ~dst:s
          | None -> ());
          (match Hashtbl.find_opt state_obj tr.U.Statechart.tr_target with
          | Some s -> Mm.add_ref m ~src:to_ "target" ~dst:s
          | None -> ());
          Mm.add_ref m ~src:o "transitions" ~dst:to_)
        sc.U.Statechart.sc_transitions;
      Mm.add_ref m ~src:model "statecharts" ~dst:o)
    uml.U.Model.statecharts;
  m

(* ------------------------------------------------------------------ *)
(* Simulink bridge (both directions: the flow's E-core artifact)      *)
(* ------------------------------------------------------------------ *)

let param_to_object m key value =
  let po = Mm.new_object m "Param" in
  Mm.set_string m po "key" key;
  (match value with
  | B.P_string s -> Mm.set_string m po "stringValue" s
  | B.P_int i -> Mm.set_int m po "intValue" i
  | B.P_float f -> Mm.set_float m po "floatValue" f
  | B.P_bool b -> Mm.set_bool m po "boolValue" b);
  po

let simulink_to_mmodel (sm : Smodel.t) =
  let m = Mm.create simulink_mm in
  let rec system_to_object (sys : S.t) =
    let so = Mm.new_object m "System" in
    Mm.set_string m so "name" sys.S.sys_name;
    List.iter
      (fun (b : S.block) ->
        let bo = Mm.new_object m "Block" in
        Mm.set_string m bo "name" b.S.blk_name;
        Mm.set_string m bo "blockType" (B.to_string b.S.blk_type);
        List.iter
          (fun (key, value) -> Mm.add_ref m ~src:bo "params" ~dst:(param_to_object m key value))
          b.S.blk_params;
        (match b.S.blk_system with
        | Some nested -> Mm.add_ref m ~src:bo "system" ~dst:(system_to_object nested)
        | None -> ());
        Mm.add_ref m ~src:so "blocks" ~dst:bo)
      sys.S.sys_blocks;
    List.iter
      (fun (l : S.line) ->
        let lo = Mm.new_object m "Line" in
        Mm.set_string m lo "srcBlock" l.S.src.S.block;
        Mm.set_int m lo "srcPort" l.S.src.S.port;
        Mm.set_string m lo "dstBlock" l.S.dst.S.block;
        Mm.set_int m lo "dstPort" l.S.dst.S.port;
        Mm.add_ref m ~src:so "lines" ~dst:lo)
      sys.S.sys_lines;
    so
  in
  let mo = Mm.new_object m "Model" in
  Mm.set_string m mo "name" sm.Smodel.model_name;
  Mm.set_string m mo "solver" sm.Smodel.solver;
  Mm.set_float m mo "stopTime" sm.Smodel.stop_time;
  Mm.add_ref m ~src:mo "root" ~dst:(system_to_object sm.Smodel.root);
  m

let object_to_param m po =
  let key =
    match Mm.get_string po "key" with
    | Some k -> k
    | None -> invalid_arg "metamodels: Param without key"
  in
  let value =
    match
      ( Mm.get_string po "stringValue",
        Mm.get_int po "intValue",
        Mm.get_float po "floatValue",
        Mm.get_bool po "boolValue" )
    with
    | Some s, _, _, _ -> B.P_string s
    | None, Some i, _, _ -> B.P_int i
    | None, None, Some f, _ -> B.P_float f
    | None, None, None, Some b -> B.P_bool b
    | None, None, None, None -> invalid_arg "metamodels: Param without value"
  in
  ignore m;
  (key, value)

let mmodel_to_simulink m =
  let rec object_to_system so =
    let name =
      match Mm.get_string so "name" with
      | Some n -> n
      | None -> invalid_arg "metamodels: System without name"
    in
    let block bo =
      let blk_name = Option.value (Mm.get_string bo "name") ~default:"?" in
      let blk_type = B.of_string (Option.value (Mm.get_string bo "blockType") ~default:"") in
      let blk_params = List.map (object_to_param m) (Mm.refs m bo "params") in
      {
        S.blk_name;
        blk_type;
        blk_params;
        blk_system = Option.map object_to_system (Mm.ref1 m bo "system");
      }
    in
    let line lo =
      let get_s k = Option.value (Mm.get_string lo k) ~default:"?" in
      let get_i k = Option.value (Mm.get_int lo k) ~default:1 in
      {
        S.src = { S.block = get_s "srcBlock"; S.port = get_i "srcPort" };
        dst = { S.block = get_s "dstBlock"; S.port = get_i "dstPort" };
      }
    in
    S.make name (List.map block (Mm.refs m so "blocks")) (List.map line (Mm.refs m so "lines"))
  in
  match Mm.all_of_class m "Model" with
  | [ mo ] ->
      let root =
        match Mm.ref1 m mo "root" with
        | Some so -> object_to_system so
        | None -> invalid_arg "metamodels: Model without root system"
      in
      Smodel.make
        ~solver:(Option.value (Mm.get_string mo "solver") ~default:"FixedStepDiscrete")
        ~stop_time:(Option.value (Mm.get_float mo "stopTime") ~default:10.0)
        ~name:(Option.value (Mm.get_string mo "name") ~default:"model")
        root
  | _ -> invalid_arg "metamodels: expected exactly one Model object"

(* ------------------------------------------------------------------ *)
(* FSM bridge                                                         *)
(* ------------------------------------------------------------------ *)

let fsm_to_mmodel (fsm : Fsm.t) =
  let m = Mm.create fsm_mm in
  let fo = Mm.new_object m "Fsm" in
  Mm.set_string m fo "name" fsm.Fsm.fsm_name;
  let state_obj = Hashtbl.create 8 in
  List.iter
    (fun s ->
      let so = Mm.new_object m "FsmState" in
      Mm.set_string m so "name" s;
      Mm.set_bool m so "final" (List.mem s fsm.Fsm.finals);
      Hashtbl.replace state_obj s so;
      Mm.add_ref m ~src:fo "states" ~dst:so)
    fsm.Fsm.states;
  (match Hashtbl.find_opt state_obj fsm.Fsm.initial with
  | Some so -> Mm.add_ref m ~src:fo "initial" ~dst:so
  | None -> ());
  List.iter
    (fun (tr : Fsm.transition) ->
      let to_ = Mm.new_object m "FsmTransition" in
      Mm.set_string m to_ "event" tr.Fsm.t_event;
      Option.iter (Mm.set_string m to_ "guard") tr.Fsm.t_guard;
      if tr.Fsm.t_actions <> [] then
        Mm.set_string m to_ "actions" (String.concat ";" tr.Fsm.t_actions);
      (match Hashtbl.find_opt state_obj tr.Fsm.t_src with
      | Some s -> Mm.add_ref m ~src:to_ "source" ~dst:s
      | None -> ());
      (match Hashtbl.find_opt state_obj tr.Fsm.t_dst with
      | Some s -> Mm.add_ref m ~src:to_ "target" ~dst:s
      | None -> ());
      Mm.add_ref m ~src:fo "transitions" ~dst:to_)
    fsm.Fsm.transitions;
  m

let mmodel_to_fsms m =
  Mm.all_of_class m "Fsm"
  |> List.map (fun fo ->
         let state_name so = Option.value (Mm.get_string so "name") ~default:"?" in
         let states = Mm.refs m fo "states" in
         let finals =
           states
           |> List.filter (fun so -> Mm.get_bool so "final" = Some true)
           |> List.map state_name
         in
         let transitions =
           Mm.refs m fo "transitions"
           |> List.filter_map (fun to_ ->
                  match (Mm.ref1 m to_ "source", Mm.ref1 m to_ "target") with
                  | Some s, Some t ->
                      Some
                        {
                          Fsm.t_src = state_name s;
                          t_dst = state_name t;
                          t_event = Option.value (Mm.get_string to_ "event") ~default:"?";
                          t_guard = Mm.get_string to_ "guard";
                          t_actions =
                            (match Mm.get_string to_ "actions" with
                            | Some a -> String.split_on_char ';' a
                            | None -> []);
                        }
                  | _, _ -> None)
         in
         let initial =
           match Mm.ref1 m fo "initial" with
           | Some so -> state_name so
           | None -> (
               match states with
               | s :: _ -> state_name s
               | [] -> invalid_arg "metamodels: Fsm without states")
         in
         Fsm.make ~finals
           ~name:(Option.value (Mm.get_string fo "name") ~default:"fsm")
           ~initial ~states:(List.map state_name states) transitions)
