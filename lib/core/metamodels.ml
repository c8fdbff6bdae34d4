module Meta = Umlfront_metamodel.Meta
module Mm = Umlfront_metamodel.Mmodel
module S = Umlfront_simulink.System
module B = Umlfront_simulink.Block
module Smodel = Umlfront_simulink.Model

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

let object_to_param po =
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
      let blk_params = List.map object_to_param (Mm.refs m bo "params") in
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
