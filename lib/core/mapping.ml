module U = Umlfront_uml
module S = Umlfront_simulink.System
module B = Umlfront_simulink.Block
module Model = Umlfront_simulink.Model
module Library = Umlfront_simulink.Library
module Caam = Umlfront_simulink.Caam
module Trace = Umlfront_metamodel.Trace

type result = {
  model : Model.t;
  trace : Trace.t;
  cross_links : int;
}

(* Inter-thread / environment data links, resolved after every
   Thread-SS is built. *)
type link_src = Src_thread of string * int | Src_model_in of string
type link_dst = Dst_thread of string * int | Dst_model_out of string

type thread_builder = {
  th_name : string;
  mutable th_blocks : S.block list;  (* reverse *)
  th_env : (string, S.port_ref) Hashtbl.t;  (* token -> producing port *)
  mutable th_pending : (string * S.port_ref) list;  (* token -> consumer port *)
  mutable th_inports : int;  (* In1 .. In<th_inports> *)
  mutable th_outports : (string * string) list;  (* reverse: (name, token fed) *)
  mutable th_n_outports : int;
  th_names : (string, int) Hashtbl.t;  (* base name -> next suffix *)
}

let new_thread_builder th_name =
  {
    th_name;
    th_blocks = [];
    th_env = Hashtbl.create 8;
    th_pending = [];
    th_inports = 0;
    th_outports = [];
    th_n_outports = 0;
    th_names = Hashtbl.create 8;
  }

let block ?(params = []) ?system ty name =
  { S.blk_name = name; blk_type = ty; blk_params = params; blk_system = system }

(* Boundary ports, numbered from 1 in the order they were added. *)
let ports ty names =
  List.mapi (fun i name -> block ~params:[ ("Port", B.P_int (i + 1)) ] ty name) names

let looks_like_boundary_port base =
  let starts prefix =
    String.length base > String.length prefix
    && String.sub base 0 (String.length prefix) = prefix
    && String.for_all
         (fun c -> c >= '0' && c <= '9')
         (String.sub base (String.length prefix) (String.length base - String.length prefix))
  in
  starts "In" || starts "Out"

let fresh_name tb base =
  (* Boundary ports are named In<k>/Out<k>; a block must not shadow
     them. *)
  let base = if looks_like_boundary_port base then "b_" ^ base else base in
  match Hashtbl.find_opt tb.th_names base with
  | None ->
      Hashtbl.replace tb.th_names base 1;
      base
  | Some n ->
      Hashtbl.replace tb.th_names base (n + 1);
      base ^ string_of_int n

let provide tb token port =
  if not (Hashtbl.mem tb.th_env token) then Hashtbl.replace tb.th_env token port

let add_inport tb token =
  let idx = tb.th_inports + 1 in
  tb.th_inports <- idx;
  provide tb token { S.block = "In" ^ string_of_int idx; S.port = 1 };
  idx

let add_outport tb token =
  let idx = tb.th_n_outports + 1 in
  let name = "Out" ^ string_of_int idx in
  tb.th_outports <- (name, token) :: tb.th_outports;
  tb.th_n_outports <- idx;
  idx

let add_functional tb ~platform ~operation ~args ~result_token ~out_tokens =
  let n_args = List.length args in
  let name, ty, params =
    match (platform, Library.lookup operation) with
    | true, Some entry ->
        let params =
          if
            n_args > entry.Library.inputs
            && (entry.Library.block_type = B.Product || entry.Library.block_type = B.Mux)
          then ("Inputs", B.P_int n_args) :: entry.Library.params
          else if
            List.length out_tokens + 1 > entry.Library.outputs
            && entry.Library.block_type = B.Demux
          then ("Outputs", B.P_int (List.length out_tokens + 1)) :: entry.Library.params
          else entry.Library.params
        in
        (fresh_name tb operation, entry.Library.block_type, params)
    | true, None | false, _ ->
        (* User-defined behaviour: an S-Function (paper §4.1).  Output
           ports: the return first, then each out parameter. *)
        let outputs =
          (if result_token = None then 0 else 1) + List.length out_tokens
        in
        ( fresh_name tb operation,
          B.S_function,
          [
            ("FunctionName", B.P_string operation);
            ("Inputs", B.P_int n_args);
            ("Outputs", B.P_int outputs);
          ] )
  in
  tb.th_blocks <- block ~params ty name :: tb.th_blocks;
  List.iteri
    (fun i token ->
      tb.th_pending <- (token, { S.block = name; S.port = i + 1 }) :: tb.th_pending)
    args;
  let first_out_port =
    match result_token with
    | Some token ->
        provide tb token { S.block = name; S.port = 1 };
        2
    | None -> 1
  in
  List.iteri
    (fun i token -> provide tb token { S.block = name; S.port = first_out_port + i })
    out_tokens;
  name

(* Wire consumers to token producers; feedback tokens resolve here
   because all producers are registered by now. *)
let build_thread_system tb =
  let wire token dst =
    Option.map (fun src -> { S.src; dst }) (Hashtbl.find_opt tb.th_env token)
  in
  let outports = List.rev tb.th_outports in
  S.make tb.th_name
    (ports B.Inport (List.init tb.th_inports (fun i -> "In" ^ string_of_int (i + 1)))
    @ List.rev tb.th_blocks
    @ ports B.Outport (List.map fst outports))
    (List.filter_map (fun (token, dst) -> wire token dst) (List.rev tb.th_pending)
    @ List.filter_map
        (fun (name, token) -> wire token { S.block = name; S.port = 1 })
        outports)

(* Mutable assembler for CPU-level and top-level systems. *)
type sys_builder = {
  sb_name : string;
  mutable sb_subsystems : (string * S.t * Caam.role) list;  (* reverse *)
  mutable sb_inports : string list;  (* reverse *)
  mutable sb_n_inports : int;
  mutable sb_outports : string list;  (* reverse *)
  mutable sb_n_outports : int;
  mutable sb_lines : S.line list;  (* reverse *)
}

let new_sys_builder sb_name =
  {
    sb_name;
    sb_subsystems = [];
    sb_inports = [];
    sb_n_inports = 0;
    sb_outports = [];
    sb_n_outports = 0;
    sb_lines = [];
  }

let sb_add_subsystem sb name sys role = sb.sb_subsystems <- (name, sys, role) :: sb.sb_subsystems

let sb_add_inport ?name sb =
  let idx = sb.sb_n_inports + 1 in
  let name = match name with Some n -> n | None -> "In" ^ string_of_int idx in
  sb.sb_inports <- name :: sb.sb_inports;
  sb.sb_n_inports <- idx;
  (idx, name)

let sb_add_outport ?name sb =
  let idx = sb.sb_n_outports + 1 in
  let name = match name with Some n -> n | None -> "Out" ^ string_of_int idx in
  sb.sb_outports <- name :: sb.sb_outports;
  sb.sb_n_outports <- idx;
  (idx, name)

let sb_line sb src dst = sb.sb_lines <- { S.src; dst } :: sb.sb_lines

let sb_build sb =
  let subsystem (name, nested, role) =
    block
      ~params:[ (Caam.role_param, B.P_string (Caam.role_to_string role)) ]
      ~system:(S.rename_system nested name) B.Subsystem name
  in
  S.make sb.sb_name
    (ports B.Inport (List.rev sb.sb_inports)
    @ List.rev_map subsystem sb.sb_subsystems
    @ ports B.Outport (List.rev sb.sb_outports))
    (List.rev sb.sb_lines)

let io_port_name (m : U.Sequence.message) =
  let op = m.U.Sequence.msg_operation in
  let stripped =
    if String.length op > 3 then String.sub op 3 (String.length op - 3) else op
  in
  if stripped = "" then m.U.Sequence.msg_to else stripped

let run ~allocation uml =
  let trace = Trace.create () in
  let threads = U.Model.threads uml in
  List.iter
    (fun th ->
      if not (List.mem_assoc th allocation) then
        invalid_arg (Printf.sprintf "mapping: thread %s has no CPU allocation" th))
    threads;
  let builders = List.map (fun th -> (th, new_thread_builder th)) threads in
  let builder th = List.assoc th builders in
  (* [U.Model.kind_of_instance] as a table: two lookups a message. *)
  let kinds = Hashtbl.create 16 in
  let classes = Hashtbl.create 16 in
  List.iter
    (fun (c : U.Classifier.cls) ->
      if not (Hashtbl.mem classes c.U.Classifier.cls_name) then
        Hashtbl.add classes c.U.Classifier.cls_name c.U.Classifier.cls_kind)
    uml.U.Model.classes;
  List.iter
    (fun (i : U.Classifier.instance) ->
      if not (Hashtbl.mem kinds i.U.Classifier.inst_name) then
        Hashtbl.add kinds i.U.Classifier.inst_name
          (Hashtbl.find_opt classes i.U.Classifier.inst_class))
    uml.U.Model.instances;
  let kind_of name = Option.join (Hashtbl.find_opt kinds name) in
  let links = ref [] in
  let add_link src dst = links := (src, dst) :: !links in
  (* Top-level port blocks share one namespace: a read and a write of
     the same IO signal ("getSample"/"setSample") must not collide. *)
  let model_inputs = ref [] in  (* reverse, deduped *)
  let model_outputs = ref [] in
  let model_input base =
    let rec unique candidate n =
      if List.mem candidate !model_outputs then unique (Printf.sprintf "%s_in%d" base n) (n + 1)
      else candidate
    in
    let name = unique base 1 in
    if not (List.mem name !model_inputs) then model_inputs := name :: !model_inputs;
    name
  in
  let model_output base =
    let rec unique candidate n =
      if List.mem candidate !model_outputs || List.mem candidate !model_inputs then
        unique (Printf.sprintf "%s_%d" base n) (n + 1)
      else candidate
    in
    let name = unique base 2 in
    model_outputs := name :: !model_outputs;
    name
  in
  let process_message sd_name idx (m : U.Sequence.message) =
    let caller = m.U.Sequence.msg_from in
    let msg_id =
      String.concat ":" [ sd_name; string_of_int idx; m.U.Sequence.msg_operation ]
    in
    match kind_of caller with
    | Some U.Classifier.Thread -> (
        let tb = builder caller in
        let callee_kind = kind_of m.U.Sequence.msg_to in
        let arg_tokens =
          List.map (fun (a : U.Sequence.arg) -> a.U.Sequence.arg_name) m.U.Sequence.msg_args
        in
        let result_token =
          Option.map (fun (a : U.Sequence.arg) -> a.U.Sequence.arg_name) m.U.Sequence.msg_result
        in
        let out_tokens =
          List.map (fun (a : U.Sequence.arg) -> a.U.Sequence.arg_name) m.U.Sequence.msg_outs
        in
        match callee_kind with
        | Some U.Classifier.Passive | Some U.Classifier.Platform ->
            let platform = callee_kind = Some U.Classifier.Platform in
            let block_name =
              add_functional tb ~platform ~operation:m.U.Sequence.msg_operation
                ~args:arg_tokens ~result_token ~out_tokens
            in
            Trace.record trace ~rule:"message_to_block" ~sources:[ msg_id ]
              ~targets:[ caller ^ "/" ^ block_name ]
        | Some U.Classifier.Thread ->
            let peer = builder m.U.Sequence.msg_to in
            if U.Sequence.is_send m then
              List.iter
                (fun token ->
                  let out_idx = add_outport tb token in
                  let in_idx = add_inport peer token in
                  add_link (Src_thread (caller, out_idx))
                    (Dst_thread (m.U.Sequence.msg_to, in_idx));
                  Trace.record trace ~rule:"send_to_channel" ~sources:[ msg_id ]
                    ~targets:[ caller ^ "/Out" ^ string_of_int out_idx ])
                arg_tokens
            else if U.Sequence.is_receive m then (
              match result_token with
              | Some token ->
                  let out_idx = add_outport peer token in
                  let in_idx = add_inport tb token in
                  add_link
                    (Src_thread (m.U.Sequence.msg_to, out_idx))
                    (Dst_thread (caller, in_idx));
                  Trace.record trace ~rule:"receive_to_channel" ~sources:[ msg_id ]
                    ~targets:[ caller ^ "/In" ^ string_of_int in_idx ]
              | None -> ())
            else ()
        | Some U.Classifier.Io_device ->
            if U.Sequence.is_io_read m then (
              match result_token with
              | Some token ->
                  let port = model_input (io_port_name m) in
                  let in_idx = add_inport tb token in
                  add_link (Src_model_in port) (Dst_thread (caller, in_idx));
                  Trace.record trace ~rule:"io_to_system_port" ~sources:[ msg_id ]
                    ~targets:[ port ]
              | None -> ())
            else if U.Sequence.is_io_write m then
              List.iter
                (fun token ->
                  let port = model_output (io_port_name m) in
                  let out_idx = add_outport tb token in
                  add_link (Src_thread (caller, out_idx)) (Dst_model_out port);
                  Trace.record trace ~rule:"io_to_system_port" ~sources:[ msg_id ]
                    ~targets:[ port ])
                arg_tokens
            else ()
        | None -> ())
    | Some U.Classifier.Passive | Some U.Classifier.Platform
    | Some U.Classifier.Io_device | None ->
        ()
  in
  List.iter
    (fun (sd : U.Sequence.t) ->
      List.iteri (fun idx m -> process_message sd.U.Sequence.sd_name idx m) sd.sd_messages)
    (U.Model.behaviours uml);
  let thread_systems =
    List.map (fun (th, tb) -> (th, build_thread_system tb)) builders
  in
  let links = List.rev !links in
  let top = new_sys_builder uml.U.Model.model_name in
  let cpus =
    List.fold_left
      (fun acc th ->
        let cpu = List.assoc th allocation in
        if List.mem cpu acc then acc else acc @ [ cpu ])
      [] threads
  in
  let cpu_builders = List.map (fun c -> (c, new_sys_builder c)) cpus in
  let cpu_builder c = List.assoc c cpu_builders in
  let cpu_of th = List.assoc th allocation in
  List.iter
    (fun (th, sys) ->
      let cpu = cpu_of th in
      sb_add_subsystem (cpu_builder cpu) th sys Caam.Thread;
      Trace.record trace ~rule:"thread_to_thread_ss" ~sources:[ th ]
        ~targets:[ cpu ^ "/" ^ th ])
    thread_systems;
  List.iter
    (fun cpu ->
      Trace.record trace ~rule:"cpu_to_cpu_ss" ~sources:[ cpu ] ~targets:[ cpu ])
    cpus;
  List.iter (fun name -> ignore (sb_add_inport ~name top)) (List.rev !model_inputs);
  List.iter (fun name -> ignore (sb_add_outport ~name top)) (List.rev !model_outputs);
  List.iter
    (fun (src, dst) ->
      match (src, dst) with
      | Src_thread (p, pi), Dst_thread (c, ci) ->
          let cpu_p = cpu_of p and cpu_c = cpu_of c in
          if String.equal cpu_p cpu_c then
            sb_line (cpu_builder cpu_p)
              { S.block = p; S.port = pi }
              { S.block = c; S.port = ci }
          else (
            let out_k, out_name = sb_add_outport (cpu_builder cpu_p) in
            sb_line (cpu_builder cpu_p)
              { S.block = p; S.port = pi }
              { S.block = out_name; S.port = 1 };
            let in_k, in_name = sb_add_inport (cpu_builder cpu_c) in
            sb_line (cpu_builder cpu_c)
              { S.block = in_name; S.port = 1 }
              { S.block = c; S.port = ci };
            sb_line top
              { S.block = cpu_p; S.port = out_k }
              { S.block = cpu_c; S.port = in_k })
      | Src_model_in name, Dst_thread (c, ci) ->
          let cpu_c = cpu_of c in
          let in_k, in_name = sb_add_inport (cpu_builder cpu_c) in
          sb_line (cpu_builder cpu_c)
            { S.block = in_name; S.port = 1 }
            { S.block = c; S.port = ci };
          sb_line top { S.block = name; S.port = 1 } { S.block = cpu_c; S.port = in_k }
      | Src_thread (p, pi), Dst_model_out name ->
          let cpu_p = cpu_of p in
          let out_k, out_name = sb_add_outport (cpu_builder cpu_p) in
          sb_line (cpu_builder cpu_p)
            { S.block = p; S.port = pi }
            { S.block = out_name; S.port = 1 };
          sb_line top { S.block = cpu_p; S.port = out_k } { S.block = name; S.port = 1 }
      | Src_model_in _, Dst_model_out _ -> ())
    links;
  List.iter
    (fun (cpu, cb) -> sb_add_subsystem top cpu (sb_build cb) Caam.Cpu)
    cpu_builders;
  let root = sb_build top in
  let model = Model.make ~name:uml.U.Model.model_name root in
  let cross_links =
    List.length
      (List.filter
         (fun (src, dst) ->
           match (src, dst) with Src_thread _, Dst_thread _ -> true | _, _ -> false)
         links)
  in
  { model; trace; cross_links }
