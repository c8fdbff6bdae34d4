module S = Umlfront_simulink.System
module B = Umlfront_simulink.Block
module Model = Umlfront_simulink.Model
module Caam = Umlfront_simulink.Caam

type outcome = {
  model : Model.t;
  intra_channels : int;
  inter_channels : int;
}

let run (m : Model.t) =
  let intra = ref 0 and inter = ref 0 in
  let channelize sys =
    let roles = Hashtbl.create 16 in
    List.iter
      (fun (b : S.block) ->
        if not (Hashtbl.mem roles b.S.blk_name) then
          Hashtbl.add roles b.S.blk_name (Caam.role_of_block b))
      (S.blocks sys);
    let role_of name = Option.join (Hashtbl.find_opt roles name) in
    let kept, spliced =
      List.partition_map
        (fun (l : S.line) ->
          match (role_of l.S.src.S.block, role_of l.S.dst.S.block) with
          | Some Caam.Cpu, Some Caam.Cpu -> Right (l, "GFIFO", inter)
          | Some Caam.Thread, Some Caam.Thread -> Right (l, "SWFIFO", intra)
          | _, _ -> Left l)
        (S.lines sys)
    in
    if spliced = [] then sys
    else
      (* ch1, ch2, ... skipping the names the system already holds: the
         names a fresh lookup per channel would pick. *)
      let next = ref 0 in
      let rec fresh () =
        incr next;
        let name = Printf.sprintf "ch%d" !next in
        if Hashtbl.mem roles name then fresh () else name
      in
      let channels =
        List.map
          (fun ((l : S.line), protocol, count) ->
            incr count;
            let name = fresh () in
            let port = { S.block = name; S.port = 1 } in
            ( {
                S.blk_name = name;
                blk_type = B.Channel;
                blk_params =
                  [
                    (Caam.protocol_param, B.P_string protocol);
                    (Caam.role_param, B.P_string (Caam.role_to_string Caam.Comm));
                  ];
                blk_system = None;
              },
              [ { S.src = l.S.src; dst = port }; { S.src = port; dst = l.S.dst } ] ))
          spliced
      in
      S.make sys.S.sys_name
        (S.blocks sys @ List.map fst channels)
        (kept @ List.concat_map snd channels)
  in
  (* Only lines between CPU-SS or Thread-SS blocks are spliced, so a
     system without a role-tagged block, such as every Thread-SS's own,
     is left as it is. *)
  let root =
    S.map_systems
      (fun _path sys ->
        if List.exists (fun b -> Caam.role_of_block b <> None) (S.blocks sys) then
          channelize sys
        else sys)
      m.Model.root
  in
  {
    model = Model.make ~solver:m.Model.solver ~stop_time:m.Model.stop_time
        ~name:m.Model.model_name root;
    intra_channels = !intra;
    inter_channels = !inter;
  }
