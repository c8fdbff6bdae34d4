type port_ref = { block : string; port : int }
type line = { src : port_ref; dst : port_ref }

type block = {
  blk_name : string;
  blk_type : Block.t;
  blk_params : (string * Block.param) list;
  blk_system : t option;
}

and t = { sys_name : string; sys_blocks : block list; sys_lines : line list }

let empty name = { sys_name = name; sys_blocks = []; sys_lines = [] }

let find_block sys name =
  List.find_opt (fun b -> String.equal b.blk_name name) sys.sys_blocks

(* The errors of building a system, shared by [add_block], [add_line]
   and [make]. *)
let no_block sys_name name = invalid_arg (Printf.sprintf "system %s: no block %s" sys_name name)

let duplicate_block sys_name name =
  invalid_arg (Printf.sprintf "system %s: duplicate block %s" sys_name name)

let already_driven sys_name dst =
  invalid_arg
    (Printf.sprintf "system %s: input port %s/%d already driven" sys_name dst.block dst.port)

(* A block as a system holds it: a subsystem always has a system, and
   no other block has one. *)
let held_block sys_name b =
  match (b.blk_type, b.blk_system) with
  | Block.Subsystem, Some _ -> b
  | Block.Subsystem, None -> { b with blk_system = Some (empty b.blk_name) }
  | _, Some _ ->
      invalid_arg (Printf.sprintf "system %s: block %s is not a subsystem" sys_name b.blk_name)
  | _, None -> b

let find_block_exn sys name =
  match find_block sys name with Some b -> b | None -> no_block sys.sys_name name

let blocks sys = sys.sys_blocks
let lines sys = sys.sys_lines
let blocks_of_type sys ty = List.filter (fun b -> b.blk_type = ty) sys.sys_blocks

let add_block ?(params = []) ?system sys ty name =
  if find_block sys name <> None then duplicate_block sys.sys_name name;
  let b =
    held_block sys.sys_name
      { blk_name = name; blk_type = ty; blk_params = params; blk_system = system }
  in
  { sys with sys_blocks = sys.sys_blocks @ [ b ] }

let param b key = List.assoc_opt key b.blk_params

let param_string b key =
  match param b key with Some (Block.P_string s) -> Some s | Some _ | None -> None

let param_int b key =
  match param b key with Some (Block.P_int i) -> Some i | Some _ | None -> None

let replace_block sys b =
  match find_block sys b.blk_name with
  | None -> no_block sys.sys_name b.blk_name
  | Some _ ->
      {
        sys with
        sys_blocks =
          List.map
            (fun existing ->
              if String.equal existing.blk_name b.blk_name then b else existing)
            sys.sys_blocks;
      }

let rename_system sys name = { sys with sys_name = name }

let set_param sys block_name key value =
  let b = find_block_exn sys block_name in
  replace_block sys
    { b with blk_params = (key, value) :: List.remove_assoc key b.blk_params }

let inport_index b = match param_int b "Port" with Some i -> i | None -> 1

let port_counts b =
  match b.blk_type with
  | Block.Subsystem ->
      let count ty =
        match b.blk_system with
        | Some sys -> List.length (blocks_of_type sys ty)
        | None -> 0
      in
      (count Block.Inport, count Block.Outport)
  | ty ->
      let di, dout = Block.default_ports ty in
      let get key fallback = Option.value (param_int b key) ~default:fallback in
      (get "Inputs" di, get "Outputs" dout)

let add_line sys ~src ~dst =
  let check (p : port_ref) = ignore (find_block_exn sys p.block) in
  check src;
  check dst;
  let taken =
    List.exists
      (fun l -> String.equal l.dst.block dst.block && l.dst.port = dst.port)
      sys.sys_lines
  in
  if taken then already_driven sys.sys_name dst;
  { sys with sys_lines = sys.sys_lines @ [ { src; dst } ] }

(* The checks of [add_block] then [add_line], in their order, over hash
   tables instead of list scans. *)
let make name blocks lines =
  let names = Hashtbl.create 16 in
  let blocks =
    List.map
      (fun b ->
        if Hashtbl.mem names b.blk_name then duplicate_block name b.blk_name;
        Hashtbl.add names b.blk_name ();
        held_block name b)
      blocks
  in
  let driven = Hashtbl.create 16 in
  List.iter
    (fun l ->
      let check (p : port_ref) = if not (Hashtbl.mem names p.block) then no_block name p.block in
      check l.src;
      check l.dst;
      if Hashtbl.mem driven (l.dst.block, l.dst.port) then already_driven name l.dst;
      Hashtbl.add driven (l.dst.block, l.dst.port) ())
    lines;
  { sys_name = name; sys_blocks = blocks; sys_lines = lines }

let remove_line sys ~src ~dst =
  { sys with sys_lines = List.filter (fun l -> l <> { src; dst }) sys.sys_lines }

let drivers sys block_name =
  sys.sys_lines
  |> List.filter_map (fun l ->
         if String.equal l.dst.block block_name then Some (l.dst.port, l.src) else None)

let consumers sys block_name port =
  sys.sys_lines
  |> List.filter_map (fun l ->
         if String.equal l.src.block block_name && l.src.port = port then Some l.dst
         else None)

let rec total_blocks sys =
  List.fold_left
    (fun acc b ->
      acc + 1 + match b.blk_system with Some s -> total_blocks s | None -> 0)
    0 sys.sys_blocks

let rec total_lines sys =
  List.length sys.sys_lines
  + List.fold_left
      (fun acc b -> acc + match b.blk_system with Some s -> total_lines s | None -> 0)
      0 sys.sys_blocks

let rec iter_systems f ?(path = []) sys =
  f path sys;
  List.iter
    (fun b ->
      match b.blk_system with
      | Some s -> iter_systems f ~path:(path @ [ b.blk_name ]) s
      | None -> ())
    sys.sys_blocks

let iter_systems f sys = iter_systems f sys

let rec map_systems f ?(path = []) sys =
  let sys =
    {
      sys with
      sys_blocks =
        List.map
          (fun b ->
            match b.blk_system with
            | Some s ->
                { b with blk_system = Some (map_systems f ~path:(path @ [ b.blk_name ]) s) }
            | None -> b)
          sys.sys_blocks;
    }
  in
  f path sys

let map_systems f sys = map_systems f sys

type complaint = { path : string; gripe : string }

let validate root =
  let complaints = ref [] in
  let blame path gripe =
    complaints := { path = String.concat "/" path; gripe } :: !complaints
  in
  let check path sys =
    let seen = Hashtbl.create 16 in
    List.iter
      (fun b ->
        if Hashtbl.mem seen b.blk_name then
          blame path (Printf.sprintf "duplicate block name %s" b.blk_name);
        Hashtbl.replace seen b.blk_name ())
      sys.sys_blocks;
    List.iter
      (fun l ->
        let endpoint role (p : port_ref) pick =
          match find_block sys p.block with
          | None -> blame path (Printf.sprintf "line %s block %s does not exist" role p.block)
          | Some b ->
              let inputs, outputs = port_counts b in
              let limit = pick (inputs, outputs) in
              if p.port < 1 || p.port > limit then
                blame path
                  (Printf.sprintf "line %s port %s/%d out of range (1..%d)" role p.block
                     p.port limit)
        in
        endpoint "source" l.src snd;
        endpoint "destination" l.dst fst)
      sys.sys_lines;
    let driven = Hashtbl.create 16 in
    List.iter
      (fun l ->
        let key = (l.dst.block, l.dst.port) in
        if Hashtbl.mem driven key then
          blame path
            (Printf.sprintf "input port %s/%d driven twice" l.dst.block l.dst.port);
        Hashtbl.replace driven key ())
      sys.sys_lines;
    let check_boundary ty =
      let ports =
        blocks_of_type sys ty |> List.map inport_index |> List.sort compare
      in
      List.iteri
        (fun i p ->
          if p <> i + 1 then
            blame path
              (Printf.sprintf "%s port numbering not contiguous (%s)" (Block.to_string ty)
                 (String.concat "," (List.map string_of_int ports))))
        ports
    in
    check_boundary Block.Inport;
    check_boundary Block.Outport
  in
  iter_systems check root;
  List.rev !complaints

let rec pp_system ppf indent sys =
  List.iter
    (fun b ->
      Format.fprintf ppf "%s%s : %s" indent b.blk_name (Block.to_string b.blk_type);
      List.iter
        (fun (k, v) -> Format.fprintf ppf " %s=%s" k (Block.param_to_string v))
        b.blk_params;
      Format.fprintf ppf "@,";
      match b.blk_system with
      | Some s -> pp_system ppf (indent ^ "  ") s
      | None -> ())
    sys.sys_blocks;
  List.iter
    (fun l ->
      Format.fprintf ppf "%s%s/%d -> %s/%d@," indent l.src.block l.src.port l.dst.block
        l.dst.port)
    sys.sys_lines

let pp ppf sys =
  Format.fprintf ppf "@[<v>system %s@," sys.sys_name;
  pp_system ppf "  " sys;
  Format.fprintf ppf "@]"
