module Xml = Umlfront_xml.Xml

let value_to_string = function
  | Mmodel.V_string s -> s
  | Mmodel.V_int i -> string_of_int i
  | Mmodel.V_float f -> Printf.sprintf "%.17g" f
  | Mmodel.V_bool b -> string_of_bool b

let value_of_string ty s =
  match ty with
  | Meta.T_string | Meta.T_enum _ -> Mmodel.V_string s
  | Meta.T_int -> Mmodel.V_int (int_of_string s)
  | Meta.T_float -> Mmodel.V_float (float_of_string s)
  | Meta.T_bool -> Mmodel.V_bool (bool_of_string s)

let rec object_to_xml m o =
  let mm = Mmodel.metamodel m in
  let cls = Mmodel.class_of o in
  let attr_pairs =
    Meta.all_attributes mm cls
    |> List.filter_map (fun a ->
           match Mmodel.get o a.Meta.attr_name with
           | Some v -> Some (a.Meta.attr_name, value_to_string v)
           | None -> None)
  in
  let cross_refs =
    Meta.all_references mm cls
    |> List.filter (fun r -> not r.Meta.ref_containment)
    |> List.filter_map (fun r ->
           match Mmodel.refs m o r.Meta.ref_name with
           | [] -> None
           | targets ->
               Some (r.Meta.ref_name, String.concat " " (List.map Mmodel.id targets)))
  in
  let children =
    Meta.all_references mm cls
    |> List.filter (fun r -> r.Meta.ref_containment)
    |> List.concat_map (fun r ->
           Mmodel.refs m o r.Meta.ref_name
           |> List.map (fun child ->
                  let node = object_to_xml m child in
                  Xml.Element
                    (Xml.tag node, ("role", r.Meta.ref_name) :: Xml.attrs node,
                     Xml.children node)))
  in
  Xml.element ~attrs:(("id", Mmodel.id o) :: (attr_pairs @ cross_refs)) cls children

let to_xml m =
  let mm = Mmodel.metamodel m in
  Xml.element
    ~attrs:[ ("metamodel", mm.Meta.mm_name) ]
    "model"
    (Mmodel.objects m
    |> List.filter (fun o -> Mmodel.container m o = None)
    |> List.map (object_to_xml m))

let to_string m = Xml.to_string (to_xml m)

let of_xml mm doc =
  if not (String.equal (Xml.tag doc) "model") then
    invalid_arg "ecore_io: root element must be <model>";
  let m = Mmodel.create mm in
  (* First pass: create every object so cross-refs can resolve. *)
  let pending = ref [] in
  let rec build_object node =
    let cls = Xml.tag node in
    let id =
      match Xml.attr "id" node with
      | Some id -> id
      | None -> invalid_arg (Printf.sprintf "ecore_io: <%s> missing id" cls)
    in
    let o = Mmodel.new_object ~id m cls in
    List.iter
      (fun (k, v) ->
        if String.equal k "id" || String.equal k "role" then ()
        else
          match Meta.find_attribute mm ~cls k with
          | Some a -> Mmodel.set m o k (value_of_string a.Meta.attr_type v)
          | None -> (
              match Meta.find_reference mm ~cls k with
              | Some _ -> pending := (o, k, v) :: !pending
              | None ->
                  invalid_arg
                    (Printf.sprintf "ecore_io: class %s has no feature %s" cls k)))
      (Xml.attrs node);
    List.iter
      (fun child_node ->
        let role =
          match Xml.attr "role" child_node with
          | Some r -> r
          | None ->
              invalid_arg
                (Printf.sprintf "ecore_io: nested <%s> missing role" (Xml.tag child_node))
        in
        let child = build_object child_node in
        Mmodel.add_ref m ~src:o role ~dst:child)
      (Xml.element_children node);
    o
  in
  List.iter (fun node -> ignore (build_object node)) (Xml.element_children doc);
  List.iter
    (fun (o, name, ids) ->
      String.split_on_char ' ' ids
      |> List.filter (fun s -> s <> "")
      |> List.iter (fun target -> Mmodel.add_ref m ~src:o name ~dst:(Mmodel.find_exn m target)))
    (List.rev !pending);
  m

let of_string mm s = of_xml mm (Xml.parse_string s)
