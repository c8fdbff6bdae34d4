let traces_csv (o : Exec.outcome) =
  let buf = Buffer.create 512 in
  let ports = List.map fst o.Exec.traces in
  Buffer.add_string buf ("round," ^ String.concat "," ports ^ "\n");
  for round = 0 to o.Exec.rounds - 1 do
    Buffer.add_string buf (string_of_int round);
    List.iter
      (fun (_, samples) -> Buffer.add_string buf (Printf.sprintf ",%.9f" samples.(round)))
      o.Exec.traces;
    Buffer.add_char buf '\n'
  done;
  Buffer.contents buf

(* The CPU slots of Timing's list schedule, with their CPU: what the
   exports draw.  The environment's ports run on no CPU. *)
let scheduled sdf =
  List.filter_map
    (fun (slot : Timing.slot) -> Option.map (fun cpu -> (slot, cpu)) slot.Timing.cpu)
    (Timing.evaluate sdf).Timing.schedule

let cpus_of rows =
  List.fold_left (fun acc (_, cpu) -> if List.mem cpu acc then acc else acc @ [ cpu ]) [] rows

let schedule_csv sdf =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "actor,cpu,thread,start,finish\n";
  List.iter
    (fun ((slot : Timing.slot), cpu) ->
      Buffer.add_string buf
        (Printf.sprintf "%s,%s,%s,%.2f,%.2f\n" slot.Timing.actor cpu
           (Option.value slot.Timing.thread ~default:"-")
           slot.Timing.start slot.Timing.finish))
    (scheduled sdf);
  Buffer.contents buf

(* The same static schedule as [gantt], exported as Chrome trace-event
   JSON: one pid per CPU, actors as Complete events, so the schedule
   can be inspected in Perfetto next to a runtime profile from
   Umlfront_obs.Trace.  Every SDF edge between two scheduled actors
   additionally exports a flow-event pair ("s" at the producer's
   finish, "f" at the consumer's start, bound by cat "token" and the
   edge index), so Perfetto draws the token hand-offs as arrows across
   CPU lanes.  All of it is derived from the static timing model, so
   the output is deterministic and golden-testable. *)
let chrome_json sdf =
  let module Json = Umlfront_obs.Json in
  let rows = scheduled sdf in
  let cpus = cpus_of rows in
  let cpu_index c =
    let rec find i = function
      | [] -> 0
      | x :: rest -> if String.equal x c then i else find (i + 1) rest
    in
    find 0 cpus
  in
  let events =
    List.map
      (fun ((slot : Timing.slot), cpu) ->
        Json.Obj
          [
            ("name", Json.String slot.Timing.actor);
            ("cat", Json.String "schedule");
            ("ph", Json.String "X");
            ("ts", Json.Float slot.Timing.start);
            ("dur", Json.Float (slot.Timing.finish -. slot.Timing.start));
            ("pid", Json.Int (1 + cpu_index cpu));
            ("tid", Json.Int 1);
            ( "args",
              Json.Obj
                [
                  ("cpu", Json.String cpu);
                  ("thread", Json.String (Option.value slot.Timing.thread ~default:"-"));
                ] );
          ])
      rows
  in
  let row name =
    List.find_opt (fun ((slot : Timing.slot), _) -> String.equal slot.Timing.actor name) rows
  in
  let flow_events =
    List.concat
      (List.mapi
         (fun i (e : Sdf.edge) ->
           match (row e.Sdf.edge_src, row e.Sdf.edge_dst) with
           | Some (src, src_cpu), Some (dst, dst_cpu) ->
               let src_finish = src.Timing.finish and dst_start = dst.Timing.start in
               let base ph ts cpu =
                 [
                   ("name", Json.String (Sdf.channel_name e));
                   ("cat", Json.String "token");
                   ("ph", Json.String ph);
                   ("id", Json.Int i);
                   ("ts", Json.Float ts);
                   ("pid", Json.Int (1 + cpu_index cpu));
                   ("tid", Json.Int 1);
                 ]
               in
               [
                 Json.Obj
                   (base "s" src_finish src_cpu
                   @ [
                       ( "args",
                         Json.Obj
                           [
                             ( "protocols",
                               Json.List
                                 (List.map
                                    (fun p -> Json.String p)
                                    (Sdf.edge_protocols e)) );
                           ] );
                     ]);
                 Json.Obj
                   (base "f" dst_start dst_cpu @ [ ("bp", Json.String "e") ]);
               ]
           | _ -> [])
         sdf.Sdf.edges)
  in
  Json.to_string
    (Json.Obj
       [
         ("traceEvents", Json.List (events @ flow_events));
         ("displayTimeUnit", Json.String "ms");
       ])

let gantt ?(width = 60) sdf =
  let rows = scheduled sdf in
  let horizon =
    List.fold_left (fun acc ((slot : Timing.slot), _) -> Float.max acc slot.Timing.finish) 1.0 rows
  in
  let buf = Buffer.create 512 in
  List.iter
    (fun cpu ->
      let lane = Bytes.make width '.' in
      List.iter
        (fun ((slot : Timing.slot), c) ->
          if String.equal c cpu then
            let from = int_of_float (slot.Timing.start /. horizon *. float_of_int (width - 1)) in
            let till = int_of_float (slot.Timing.finish /. horizon *. float_of_int (width - 1)) in
            for i = from to min till (width - 1) do
              Bytes.set lane i '#'
            done)
        rows;
      Buffer.add_string buf (Printf.sprintf "  %-8s |%s| 0..%.1f\n" cpu (Bytes.to_string lane) horizon))
    (cpus_of rows);
  Buffer.contents buf
