module S = Umlfront_simulink.System
module B = Umlfront_simulink.Block
module Obs = Umlfront_obs

type 'a process =
  | Read of string * (float -> 'a process)
  | Write of string * float * (unit -> 'a process)
  | Done of 'a

type outcome = {
  results : (string * float) list;
  channel_residue : (string * int) list;
  steps : int;
}

exception Deadlock of string list
exception Out_of_fuel

let run ?(fuel = 100_000) named =
  let channels : (string, float Queue.t) Hashtbl.t = Hashtbl.create 16 in
  let channel name =
    match Hashtbl.find_opt channels name with
    | Some q -> q
    | None ->
        let q = Queue.create () in
        Hashtbl.add channels name q;
        q
  in
  let live = ref (List.map (fun (name, p) -> (name, ref p)) named) in
  let results = ref [] in
  let steps = ref 0 in
  let progress = ref true in
  let telemetry = Obs.Telemetry.enabled () in
  let writes : (string, int) Hashtbl.t = Hashtbl.create 16 in
  while !live <> [] && !progress do
    progress := false;
    live :=
      List.filter
        (fun (name, cell) ->
          let rec advance p =
            cell := p;
            if !steps >= fuel then raise Out_of_fuel;
            match p with
            | Done v ->
                results := (name, v) :: !results;
                false
            | Write (ch, v, k) ->
                incr steps;
                progress := true;
                Queue.push v (channel ch);
                if telemetry then (
                  let n = 1 + Option.value (Hashtbl.find_opt writes name) ~default:0 in
                  Hashtbl.replace writes name n;
                  ignore (Obs.Telemetry.produce ~src:name ~firing:n ch));
                advance (k ())
            | Read (ch, k) ->
                let q = channel ch in
                if Queue.is_empty q then true
                else (
                  incr steps;
                  progress := true;
                  let v = Queue.pop q in
                  if telemetry then ignore (Obs.Telemetry.consume ~by:name ch);
                  advance (k v))
          in
          advance !cell)
        !live
  done;
  (* Sorted: the surviving-process order is a scheduling artifact, and
     the exception is part of error messages and test expectations. *)
  if !live <> [] then begin
    let victims = List.sort compare (List.map fst !live) in
    Obs.Journal.record "kpn.deadlock"
      ~fields:
        [ ("victims", Obs.Json.List (List.map (fun v -> Obs.Json.String v) victims)) ];
    raise (Deadlock victims)
  end;
  {
    results = List.rev !results;
    channel_residue =
      Hashtbl.fold (fun name q acc -> (name, Queue.length q) :: acc) channels []
      |> List.filter (fun (_, n) -> n > 0)
      |> List.sort compare;
    steps = !steps;
  }

let producer ~out samples =
  let rec go last = function
    | [] -> Done last
    | v :: rest -> Write (out, v, fun () -> go v rest)
  in
  go 0.0 samples

let consumer ~inp ~n =
  let rec go acc remaining =
    if remaining = 0 then Done acc else Read (inp, fun v -> go (acc +. v) (remaining - 1))
  in
  go 0.0 n

let map1 ~inp ~out ~n f =
  let rec go last remaining =
    if remaining = 0 then Done last
    else
      Read
        ( inp,
          fun v ->
            let r = f v in
            Write (out, r, fun () -> go r (remaining - 1)) )
  in
  go 0.0 n

let zip_with ~in1 ~in2 ~out ~n f =
  let rec go last remaining =
    if remaining = 0 then Done last
    else
      Read
        ( in1,
          fun a ->
            Read
              ( in2,
                fun b ->
                  let r = f a b in
                  Write (out, r, fun () -> go r (remaining - 1)) ) )
  in
  go 0.0 n

let channel_name = Sdf.channel_name

let of_sdf_actor sdf (a : Sdf.actor) ~rounds =
  let ins = Sdf.preds sdf a.Sdf.actor_name in
  let outs = Sdf.succs sdf a.Sdf.actor_name in
  let read_all k =
    let values = Array.make (max a.Sdf.actor_inputs 1) 0.0 in
    let rec loop = function
      | [] -> k values
      | (e : Sdf.edge) :: rest ->
          Read
            ( channel_name e,
              fun v ->
                if e.edge_dst_port >= 1 && e.edge_dst_port <= Array.length values then
                  values.(e.edge_dst_port - 1) <- v;
                loop rest )
    in
    loop ins
  in
  let write_all outputs k =
    let rec loop = function
      | [] -> k ()
      | (e : Sdf.edge) :: rest ->
          let v =
            let idx = e.Sdf.edge_src_port - 1 in
            if idx >= 0 && idx < Array.length outputs then outputs.(idx) else 0.0
          in
          Write (channel_name e, v, fun () -> loop rest)
    in
    loop outs
  in
  let blk = a.Sdf.actor_block in
  let behave ins =
    match blk.S.blk_type with
    | B.Unit_delay -> [| (if Array.length ins > 0 then ins.(0) else 0.0) |]
    | B.Inport | B.Outport -> ins
    | _ -> Exec.behaviour ~sfunctions:(fun _ -> None) a ins
  in
  let rec iteration last remaining =
    if remaining = 0 then Done last
    else
      read_all (fun ins ->
          let outputs = behave ins in
          let last =
            if Array.length outputs > 0 then outputs.(0)
            else if Array.length ins > 0 then ins.(0)
            else last
          in
          write_all outputs (fun () -> iteration last (remaining - 1)))
  in
  match blk.S.blk_type with
  | B.Unit_delay ->
      (* Prime the cycle with the initial condition, run one fewer
         write round so channels drain. *)
      let init = Exec.param_float blk "InitialCondition" 0.0 in
      write_all [| init |] (fun () ->
          let rec delay_loop last remaining =
            if remaining = 0 then Done last
            else
              read_all (fun ins ->
                  let v = if Array.length ins > 0 then ins.(0) else 0.0 in
                  if remaining = 1 then Done v
                  else write_all [| v |] (fun () -> delay_loop v (remaining - 1)))
          in
          delay_loop init rounds)
  | B.Inport when a.Sdf.actor_path = [] ->
      let stimulus = Exec.default_stimulus a.Sdf.actor_name in
      let rec src_loop round =
        if round = rounds then Done (stimulus (rounds - 1))
        else write_all [| stimulus round |] (fun () -> src_loop (round + 1))
      in
      src_loop 0
  | B.Outport when a.Sdf.actor_path = [] ->
      let rec sink_loop last remaining =
        if remaining = 0 then Done last
        else read_all (fun ins -> sink_loop ins.(0) (remaining - 1))
      in
      sink_loop 0.0 rounds
  | _ -> iteration 0.0 rounds

let of_sdf ~rounds sdf =
  List.map (fun (a : Sdf.actor) -> (a.Sdf.actor_name, of_sdf_actor sdf a ~rounds)) sdf.Sdf.actors
