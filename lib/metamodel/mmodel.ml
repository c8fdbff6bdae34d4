type value = V_string of string | V_int of int | V_float of float | V_bool of bool

type obj = {
  obj_id : string;
  obj_class : string;
  mutable slots : (string * value) list;
  mutable ref_slots : (string * string list) list;
}

type t = {
  mm : Meta.t;
  table : (string, obj) Hashtbl.t;
  mutable order : string list;  (* reverse creation order *)
  mutable counter : int;
}

let create mm = { mm; table = Hashtbl.create 64; order = []; counter = 0 }
let metamodel m = m.mm
let id o = o.obj_id
let class_of o = o.obj_class
let find m oid = Hashtbl.find_opt m.table oid

let find_exn m oid =
  match find m oid with
  | Some o -> o
  | None -> invalid_arg (Printf.sprintf "model: no object with id %s" oid)

let objects m = List.rev_map (fun oid -> find_exn m oid) m.order

let new_object ?id m cls =
  (match Meta.find_class m.mm cls with
  | None -> invalid_arg (Printf.sprintf "model: unknown class %s" cls)
  | Some c when c.Meta.class_abstract ->
      invalid_arg (Printf.sprintf "model: class %s is abstract" cls)
  | Some _ -> ());
  let oid =
    match id with
    | Some id ->
        if Hashtbl.mem m.table id then
          invalid_arg (Printf.sprintf "model: duplicate id %s" id);
        id
    | None ->
        let rec fresh () =
          m.counter <- m.counter + 1;
          let candidate = Printf.sprintf "%s_%d" cls m.counter in
          if Hashtbl.mem m.table candidate then fresh () else candidate
        in
        fresh ()
  in
  let o = { obj_id = oid; obj_class = cls; slots = []; ref_slots = [] } in
  Hashtbl.add m.table oid o;
  m.order <- oid :: m.order;
  o

let all_of_class m cls =
  objects m |> List.filter (fun o -> Meta.is_subclass_of m.mm ~sub:o.obj_class ~super:cls)

let value_matches ty v =
  match (ty, v) with
  | Meta.T_string, V_string _ | Meta.T_int, V_int _ -> true
  | Meta.T_float, V_float _ | Meta.T_bool, V_bool _ -> true
  | Meta.T_enum lits, V_string s -> List.mem s lits
  | (Meta.T_string | Meta.T_int | Meta.T_float | Meta.T_bool | Meta.T_enum _), _ ->
      false

let set m o name v =
  match Meta.find_attribute m.mm ~cls:o.obj_class name with
  | None ->
      invalid_arg (Printf.sprintf "model: class %s has no attribute %s" o.obj_class name)
  | Some a ->
      if not (value_matches a.Meta.attr_type v) then
        invalid_arg (Printf.sprintf "model: attribute %s.%s type mismatch" o.obj_class name);
      o.slots <- (name, v) :: List.remove_assoc name o.slots

let get o name = List.assoc_opt name o.slots

let get_string o name =
  match get o name with Some (V_string s) -> Some s | Some _ | None -> None

let get_int o name =
  match get o name with Some (V_int i) -> Some i | Some _ | None -> None

let get_bool o name =
  match get o name with Some (V_bool b) -> Some b | Some _ | None -> None

let get_float o name =
  match get o name with Some (V_float f) -> Some f | Some _ | None -> None

let set_string m o name s = set m o name (V_string s)
let set_int m o name i = set m o name (V_int i)
let set_bool m o name b = set m o name (V_bool b)
let set_float m o name f = set m o name (V_float f)

let ref_meta m o name =
  match Meta.find_reference m.mm ~cls:o.obj_class name with
  | None ->
      invalid_arg (Printf.sprintf "model: class %s has no reference %s" o.obj_class name)
  | Some r -> r

let container m o =
  let contains candidate =
    Meta.all_references m.mm candidate.obj_class
    |> List.exists (fun r ->
           r.Meta.ref_containment
           &&
           match List.assoc_opt r.Meta.ref_name candidate.ref_slots with
           | Some targets -> List.mem o.obj_id targets
           | None -> false)
  in
  objects m |> List.find_opt contains

let add_ref m ~src name ~dst =
  let r = ref_meta m src name in
  if not (Meta.is_subclass_of m.mm ~sub:dst.obj_class ~super:r.Meta.ref_target) then
    invalid_arg
      (Printf.sprintf "model: reference %s.%s expects %s, got %s" src.obj_class name
         r.Meta.ref_target dst.obj_class);
  if r.Meta.ref_containment then (
    match container m dst with
    | Some c when not (String.equal c.obj_id src.obj_id) ->
        invalid_arg
          (Printf.sprintf "model: object %s is already contained in %s" dst.obj_id c.obj_id)
    | Some _ | None -> ());
  let existing =
    match List.assoc_opt name src.ref_slots with Some l -> l | None -> []
  in
  let updated =
    if r.Meta.ref_many then
      if List.mem dst.obj_id existing then existing else existing @ [ dst.obj_id ]
    else [ dst.obj_id ]
  in
  src.ref_slots <- (name, updated) :: List.remove_assoc name src.ref_slots

let refs m o name =
  ignore (ref_meta m o name);
  match List.assoc_opt name o.ref_slots with
  | None -> []
  | Some ids -> List.filter_map (find m) ids

let ref1 m o name = match refs m o name with [] -> None | first :: _ -> Some first

type violation = { object_id : string; complaint : string }

let pp_violation ppf v = Fmt.pf ppf "%s: %s" v.object_id v.complaint

let validate m =
  let issues = ref [] in
  let blame o complaint = issues := { object_id = o.obj_id; complaint } :: !issues in
  let check_object o =
    List.iter
      (fun a ->
        if a.Meta.attr_required && get o a.Meta.attr_name = None then
          blame o (Printf.sprintf "missing required attribute %s" a.Meta.attr_name))
      (Meta.all_attributes m.mm o.obj_class);
    List.iter
      (fun (name, ids) ->
        List.iter
          (fun i ->
            if find m i = None then
              blame o (Printf.sprintf "reference %s targets dead object %s" name i))
          ids)
      o.ref_slots
  in
  List.iter check_object (objects m);
  (* Containment acyclicity: walk up from every object, bounded by size. *)
  let n = Hashtbl.length m.table in
  let check_cycle o =
    let rec up steps current =
      if steps > n then blame o "containment cycle"
      else
        match container m current with None -> () | Some c -> up (steps + 1) c
    in
    up 0 o
  in
  List.iter check_cycle (objects m);
  List.rev !issues

let size m = Hashtbl.length m.table

let pp_value ppf = function
  | V_string s -> Fmt.pf ppf "%S" s
  | V_int i -> Fmt.int ppf i
  | V_float f -> Fmt.float ppf f
  | V_bool b -> Fmt.bool ppf b

let pp ppf m =
  Fmt.pf ppf "@[<v>model (%d objects, metamodel %s)@," (size m) m.mm.Meta.mm_name;
  List.iter
    (fun o ->
      Fmt.pf ppf "  %s : %s@," o.obj_id o.obj_class;
      List.iter (fun (k, v) -> Fmt.pf ppf "    %s = %a@," k pp_value v) o.slots;
      List.iter
        (fun (k, ids) -> Fmt.pf ppf "    %s -> [%s]@," k (String.concat "; " ids))
        o.ref_slots)
    (objects m);
  Fmt.pf ppf "@]"
