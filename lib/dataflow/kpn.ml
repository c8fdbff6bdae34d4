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

type blocked = { b_actor : string; b_op : [ `Read | `Write ]; b_channel : string }

type stall = {
  stall_reason : [ `Deadlock | `No_completion of int | `Out_of_fuel ];
  stall_blocked : blocked list;
  stall_channels : (string * int) list;
  stall_steps : int;
}

exception Stalled of stall

let stall_to_string st =
  let reason =
    match st.stall_reason with
    | `Deadlock -> "deadlock"
    | `No_completion budget ->
        Printf.sprintf "no process completed within %d scheduler steps" budget
    | `Out_of_fuel -> "out of fuel"
  in
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "kpn stalled after %d steps: %s\n" st.stall_steps reason);
  Buffer.add_string buf "blocked actors:\n";
  if st.stall_blocked = [] then Buffer.add_string buf "  (none recorded)\n";
  List.iter
    (fun b ->
      Buffer.add_string buf
        (Printf.sprintf "  %s: blocked on %s %s\n" b.b_actor
           (match b.b_op with `Read -> "read" | `Write -> "write")
           b.b_channel))
    st.stall_blocked;
  Buffer.add_string buf "channel occupancy:\n";
  if st.stall_channels = [] then Buffer.add_string buf "  (all empty)\n";
  List.iter
    (fun (ch, n) -> Buffer.add_string buf (Printf.sprintf "  %s: %d token(s)\n" ch n))
    st.stall_channels;
  Buffer.contents buf

let stall_json st =
  Obs.Json.Obj
    [
      ( "reason",
        Obs.Json.String
          (match st.stall_reason with
          | `Deadlock -> "deadlock"
          | `No_completion _ -> "no_completion"
          | `Out_of_fuel -> "out_of_fuel") );
      ("steps", Obs.Json.Int st.stall_steps);
      ( "blocked",
        Obs.Json.List
          (List.map
             (fun b ->
               Obs.Json.Obj
                 [
                   ("actor", Obs.Json.String b.b_actor);
                   ( "op",
                     Obs.Json.String
                       (match b.b_op with `Read -> "read" | `Write -> "write") );
                   ("channel", Obs.Json.String b.b_channel);
                 ])
             st.stall_blocked) );
      ( "channels",
        Obs.Json.Obj
          (List.map (fun (ch, n) -> (ch, Obs.Json.Int n)) st.stall_channels) );
    ]

let run ?(fuel = 100_000) ?capacity ?watchdog named =
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
  let last_completion = ref 0 in
  let telemetry = Obs.Telemetry.enabled () in
  let writes : (string, int) Hashtbl.t = Hashtbl.create 16 in
  (* Snapshot of who is blocked where and what every channel holds —
     the stall watchdog's report.  Only built on the failure paths. *)
  let snapshot reason =
    let blocked =
      List.filter_map
        (fun (name, cell) ->
          match !cell with
          | Read (ch, _) -> Some { b_actor = name; b_op = `Read; b_channel = ch }
          | Write (ch, _, _) -> Some { b_actor = name; b_op = `Write; b_channel = ch }
          | Done _ -> None)
        !live
      |> List.sort compare
    in
    {
      stall_reason = reason;
      stall_blocked = blocked;
      stall_channels =
        Hashtbl.fold (fun name q acc -> (name, Queue.length q) :: acc) channels []
        |> List.filter (fun (_, n) -> n > 0)
        |> List.sort compare;
      stall_steps = !steps;
    }
  in
  let stall reason =
    let st = snapshot reason in
    Obs.Journal.record "kpn.stall" ~fields:[ ("stall", stall_json st) ];
    raise (Stalled st)
  in
  while !live <> [] && !progress do
    progress := false;
    live :=
      List.filter
        (fun (name, cell) ->
          let rec advance p =
            cell := p;
            if !steps >= fuel then
              if watchdog <> None then stall `Out_of_fuel else raise Out_of_fuel;
            (match watchdog with
            | Some budget when !steps - !last_completion > budget ->
                stall (`No_completion budget)
            | _ -> ());
            match p with
            | Done v ->
                results := (name, v) :: !results;
                last_completion := !steps;
                false
            | Write (ch, v, k) ->
                let q = channel ch in
                let full =
                  match capacity with Some c -> Queue.length q >= c | None -> false
                in
                if full then true
                else (
                  incr steps;
                  progress := true;
                  Queue.push v q;
                  if telemetry then (
                    let n = 1 + Option.value (Hashtbl.find_opt writes name) ~default:0 in
                    Hashtbl.replace writes name n;
                    ignore (Obs.Telemetry.produce ~src:name ~firing:n ch));
                  advance (k ()))
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
    if watchdog <> None then stall `Deadlock else raise (Deadlock victims)
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

let param_float (blk : S.block) key fallback =
  match List.assoc_opt key blk.S.blk_params with
  | Some (B.P_float f) -> f
  | Some (B.P_int i) -> float_of_int i
  | Some _ | None -> fallback

let of_sdf_actor sdf (a : Sdf.actor) ~rounds ~sfunction =
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
    | _ ->
        Exec.behaviour
          ~sfunctions:(fun name -> Some (fun i -> sfunction name i a.Sdf.actor_outputs))
          a ins
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
      let init = param_float blk "InitialCondition" 0.0 in
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
      let stimulus round =
        let h = float_of_int (Hashtbl.hash a.Sdf.actor_name mod 10) in
        sin ((float_of_int round +. h) /. 5.0)
      in
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

let of_sdf ?(sfunction = Exec.default_sfunction) ~rounds sdf =
  List.map
    (fun (a : Sdf.actor) ->
      (a.Sdf.actor_name, of_sdf_actor sdf a ~rounds ~sfunction))
    sdf.Sdf.actors
