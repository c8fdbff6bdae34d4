module U = Umlfront_uml
module S = Umlfront_simulink.System
module B = Umlfront_simulink.Block
module Model = Umlfront_simulink.Model
module Caam = Umlfront_simulink.Caam
module Library = Umlfront_simulink.Library
module Sdf = Umlfront_dataflow.Sdf
module Exec = Umlfront_dataflow.Exec
module M2t = Umlfront_transform.M2t

(* Reverse library lookup: the Platform method whose entry instantiates
   this block, discriminating same-type entries by their parameters
   (Sum "+-" is `sub`, Sum "++" is `add`). *)
let platform_method (blk : S.block) =
  match blk.S.blk_type with
  | B.Unit_delay -> Some "delay"
  | B.Sum ->
      Some (if S.param_string blk "Inputs" = Some "+-" then "sub" else "add")
  | B.Trig -> Some (Option.value (S.param_string blk "Function") ~default:"sin")
  | B.Min_max -> Some (Option.value (S.param_string blk "Function") ~default:"max")
  | B.Math -> Some (Option.value (S.param_string blk "Function") ~default:"exp")
  | ty ->
      Library.entries
      |> List.find_opt (fun e -> e.Library.block_type = ty)
      |> Option.map (fun e -> e.Library.method_name)

let run (m : Model.t) =
  if Caam.cpus m = [] then invalid_arg "capture: model has no CPU-SS layer";
  let sdf = Sdf.of_model m in
  let order = Exec.firing_order sdf in
  let actor name = Option.get (Sdf.find_actor sdf name) in
  let b = U.Builder.create (m.Model.model_name ^ "_captured") in
  (* One identifier per actor, claimed in actor order, for the objects,
     classes, tokens and IO operations named after it: block paths that
     sanitize alike still yield distinct UML names. *)
  let ident = M2t.make_namer M2t.sanitize in
  List.iter (fun (a : Sdf.actor) -> ignore (ident a.Sdf.actor_name)) sdf.Sdf.actors;
  (* Deployment layer. *)
  List.iter
    (fun cpu ->
      U.Builder.cpu b cpu.S.blk_name;
      List.iter
        (fun th ->
          U.Builder.thread b th.S.blk_name;
          U.Builder.allocate b ~thread:th.S.blk_name ~cpu:cpu.S.blk_name)
        (Caam.threads_of_cpu cpu))
    (Caam.cpus m);
  let needs_platform =
    List.exists
      (fun (a : Sdf.actor) ->
        a.Sdf.actor_path <> []
        && a.Sdf.actor_block.S.blk_type <> B.S_function
        && platform_method a.Sdf.actor_block <> None)
      sdf.Sdf.actors
  in
  if needs_platform then U.Builder.platform b "Platform";
  let has_env = sdf.Sdf.graph_inputs <> [] || sdf.Sdf.graph_outputs <> [] in
  if has_env then U.Builder.io_device b "IODevice";
  (* Passive objects: one per S-Function actor, so same-named
     behaviours with different arities keep distinct operations. *)
  let sfun_object = Hashtbl.create 8 in
  List.iter
    (fun (a : Sdf.actor) ->
      if a.Sdf.actor_path <> [] && a.Sdf.actor_block.S.blk_type = B.S_function then (
        let obj = "o_" ^ ident a.Sdf.actor_name in
        U.Builder.passive_object b ~cls:("C_" ^ ident a.Sdf.actor_name) obj;
        Hashtbl.replace sfun_object a.Sdf.actor_name obj))
    sdf.Sdf.actors;
  (* Token per producing (actor, out port). *)
  let token_of name port = Printf.sprintf "t_%s_%d" (ident name) port in
  let arg_of name port = U.Sequence.arg (token_of name port) U.Datatype.D_float in
  let thread_of (a : Sdf.actor) =
    match a.Sdf.actor_path with
    | _ :: thread :: _ -> Some thread
    | [ _ ] | [] -> None
  in
  (* Functional calls, in global firing order (thread order follows). *)
  List.iter
    (fun name ->
      let a = actor name in
      match thread_of a with
      | None -> ()
      | Some thread ->
          let args =
            List.init a.Sdf.actor_inputs (fun i -> i + 1)
            |> List.filter_map (fun port ->
                   Sdf.preds sdf name
                   |> List.find_opt (fun (e : Sdf.edge) -> e.Sdf.edge_dst_port = port)
                   |> Option.map (fun (e : Sdf.edge) ->
                          arg_of e.Sdf.edge_src e.Sdf.edge_src_port))
          in
          let result =
            if a.Sdf.actor_outputs >= 1 then Some (arg_of name 1) else None
          in
          let outs =
            List.init (max 0 (a.Sdf.actor_outputs - 1)) (fun i -> arg_of name (i + 2))
          in
          (match a.Sdf.actor_block.S.blk_type with
          | B.S_function ->
              let fn =
                Option.value
                  (S.param_string a.Sdf.actor_block "FunctionName")
                  ~default:a.Sdf.actor_block.S.blk_name
              in
              U.Builder.call b ~from:thread
                ~target:(Hashtbl.find sfun_object a.Sdf.actor_name)
                fn ~args ?result ~outs
          | _ -> (
              match platform_method a.Sdf.actor_block with
              | Some op ->
                  U.Builder.call b ~from:thread ~target:"Platform" op ~args ?result ~outs
              | None -> ())))
    order;
  (* Cross-thread and environment links (one message per distinct
     token/endpoint pair, whatever the fan-out). *)
  let seen = Hashtbl.create 16 in
  let once key f =
    if not (Hashtbl.mem seen key) then (
      Hashtbl.replace seen key ();
      f ())
  in
  List.iter
    (fun (e : Sdf.edge) ->
      let src = actor e.Sdf.edge_src and dst = actor e.Sdf.edge_dst in
      let token = arg_of e.Sdf.edge_src e.Sdf.edge_src_port in
      match (thread_of src, thread_of dst) with
      | Some p, Some c when not (String.equal p c) ->
          once (token.U.Sequence.arg_name, p, c) (fun () ->
              U.Builder.call b ~from:p ~target:c
                ("Set_" ^ token.U.Sequence.arg_name)
                ~args:[ token ])
      | Some _, Some _ -> ()
      | None, Some c ->
          (* Top-level Inport feeding thread c: an IO read binding the
             port's token, issued by the consumer thread. *)
          once (token.U.Sequence.arg_name, "env", c) (fun () ->
              U.Builder.call b ~from:c ~target:"IODevice"
                ("get" ^ ident src.Sdf.actor_name)
                ~result:token)
      | Some p, None ->
          once (token.U.Sequence.arg_name, p, "env:" ^ dst.Sdf.actor_name) (fun () ->
              U.Builder.call b ~from:p ~target:"IODevice"
                ("set" ^ ident dst.Sdf.actor_name)
                ~args:[ token ])
      | None, None -> ())
    sdf.Sdf.edges;
  U.Builder.finish b
