module U = Umlfront_uml

let arg = U.Sequence.arg
let payload n = U.Datatype.D_named ("buf", n)

let pipeline_gen ~cpus ~seed ~threads ~extra_edges =
  let state = Random.State.make [| seed |] in
  let prefix = if cpus > 0 then "cpu" else "rand" in
  let b = U.Builder.create (Printf.sprintf "%s%d" prefix seed) in
  (* TA..TZ, then T26, T27, ...: letters and digits never collide. *)
  let name i =
    if i < 26 then Printf.sprintf "T%c" (Char.chr (Char.code 'A' + i))
    else Printf.sprintf "T%d" i
  in
  for i = 0 to threads - 1 do
    U.Builder.thread b (name i)
  done;
  if cpus > 0 then (
    for c = 1 to cpus do
      U.Builder.cpu b (Printf.sprintf "CPU%d" c)
    done;
    for i = 0 to threads - 1 do
      U.Builder.allocate b ~thread:(name i)
        ~cpu:(Printf.sprintf "CPU%d" ((i mod cpus) + 1))
    done);
  U.Builder.io_device b "IO";
  for i = 0 to threads - 1 do
    U.Builder.passive_object b ~cls:("W" ^ name i) ("w" ^ name i)
  done;
  let edges = ref [] in
  (* Spanning chain keeps everything connected; extra random forward
     edges add fan-out. *)
  for i = 0 to threads - 2 do
    edges := (i, i + 1) :: !edges
  done;
  for _ = 1 to extra_edges do
    let i = Random.State.int state (threads - 1) in
    let j = i + 1 + Random.State.int state (threads - i - 1) in
    if not (List.mem (i, j) !edges) then edges := (i, j) :: !edges
  done;
  let edges = List.rev !edges in
  let work_token i = arg ("w" ^ name i) (payload 4) in
  let edge_token (i, j) bytes = arg (Printf.sprintf "t%d_%d" i j) (payload bytes) in
  let inputs_of j =
    List.filter_map
      (fun (i, j2) -> if j2 = j then Some (edge_token (i, j) 4) else None)
      edges
  in
  U.Builder.call b ~from:(name 0) ~target:"IO" "getIn" ~result:(arg "x0" (payload 4));
  U.Builder.call b ~from:(name 0) ~target:("w" ^ name 0) "work"
    ~args:[ arg "x0" (payload 4) ]
    ~result:(work_token 0);
  for i = 1 to threads - 1 do
    U.Builder.call b ~from:(name i) ~target:("w" ^ name i) "work" ~args:(inputs_of i)
      ~result:(work_token i)
  done;
  List.iter
    (fun (i, j) ->
      let bytes = 1 + Random.State.int state 16 in
      U.Builder.call b ~from:(name i) ~target:("w" ^ name i)
        (Printf.sprintf "pack%d_%d" i j)
        ~args:[ work_token i ]
        ~result:(edge_token (i, j) bytes);
      U.Builder.call b ~from:(name i) ~target:(name j)
        (Printf.sprintf "Set%d_%d" i j)
        ~args:[ edge_token (i, j) bytes ])
    edges;
  U.Builder.call b
    ~from:(name (threads - 1))
    ~target:"IO" "setOut"
    ~args:[ work_token (threads - 1) ];
  U.Builder.finish b

let pipeline ~seed ~threads ~extra_edges =
  pipeline_gen ~cpus:0 ~seed ~threads ~extra_edges

let multi_cpu ~seed ~threads ~cpus ~extra_edges =
  pipeline_gen ~cpus:(max 1 cpus) ~seed ~threads ~extra_edges

let cyclic ~seed ~stages =
  let state = Random.State.make [| seed |] in
  let b = U.Builder.create (Printf.sprintf "cyc%d" seed) in
  let stage i = Printf.sprintf "S%d" i in
  U.Builder.thread b "Tsensor";
  U.Builder.thread b "Tctl";
  for i = 0 to stages - 1 do
    U.Builder.thread b (stage i)
  done;
  U.Builder.platform b "Platform";
  U.Builder.io_device b "IO";
  U.Builder.passive_object b ~cls:"Sense" "sense";
  let f = U.Datatype.D_float in
  U.Builder.call b ~from:"Tsensor" ~target:"IO" "getIn" ~result:(arg "s" f);
  U.Builder.call b ~from:"Tsensor" ~target:"sense" "cond" ~args:[ arg "s" f ]
    ~result:(arg "m" f);
  U.Builder.call b ~from:"Tctl" ~target:"Tsensor" "GetM" ~result:(arg "m" f);
  (* [u] is used before [sat] defines it — the crane-style cyclic data
     dependency the §4.2.2 loop breaker must cut with a UnitDelay. *)
  U.Builder.call b ~from:"Tctl" ~target:"Platform" "sub"
    ~args:[ arg "m" f; arg "u" f ]
    ~result:(arg "e" f);
  U.Builder.call b ~from:"Tctl" ~target:"Platform" "gain" ~args:[ arg "e" f ]
    ~result:(arg "c" f);
  U.Builder.call b ~from:"Tctl" ~target:"Platform" "sat" ~args:[ arg "c" f ]
    ~result:(arg "u" f);
  let prev = ref ("Tctl", "u") in
  for i = 0 to stages - 1 do
    let src, tok = !prev in
    let th = stage i in
    U.Builder.call b ~from:src ~target:th (Printf.sprintf "Set_%s" th)
      ~args:[ arg tok f ];
    let out = Printf.sprintf "y%d" i in
    (if Random.State.bool state then
       U.Builder.call b ~from:th ~target:"Platform" "gain" ~args:[ arg tok f ]
         ~result:(arg out f)
     else (
       U.Builder.passive_object b ~cls:("W" ^ th) ("w" ^ th);
       U.Builder.call b ~from:th ~target:("w" ^ th) "work" ~args:[ arg tok f ]
         ~result:(arg out f)));
    prev := (th, out)
  done;
  let last, tok = !prev in
  U.Builder.call b ~from:last ~target:"IO" "setOut" ~args:[ arg tok f ];
  U.Builder.finish b

let chatty ~seed ~threads ~width =
  let state = Random.State.make [| seed |] in
  let b = U.Builder.create (Printf.sprintf "chat%d" seed) in
  let name i = Printf.sprintf "C%d" i in
  let f = U.Datatype.D_float in
  for i = 0 to threads - 1 do
    U.Builder.thread b (name i)
  done;
  U.Builder.io_device b "IO";
  for i = 0 to threads - 1 do
    U.Builder.passive_object b ~cls:("W" ^ name i) ("w" ^ name i)
  done;
  U.Builder.call b ~from:(name 0) ~target:"IO" "getIn" ~result:(arg "x0" f);
  let inputs = ref [ arg "x0" f ] in
  for i = 0 to threads - 1 do
    let th = name i in
    let fused = arg ("m" ^ th) f in
    U.Builder.call b ~from:th ~target:("w" ^ th) "fuse" ~args:!inputs ~result:fused;
    if i < threads - 1 then (
      let next = name (i + 1) in
      let w = 1 + Random.State.int state (max 1 width) in
      inputs :=
        List.init w (fun k ->
            let t = arg (Printf.sprintf "t%d_%d" i k) f in
            U.Builder.call b ~from:th ~target:("w" ^ th)
              (Printf.sprintf "chan%d" k)
              ~args:[ fused ] ~result:t;
            U.Builder.call b ~from:th ~target:next
              (Printf.sprintf "Set%d_%d" i k)
              ~args:[ t ];
            t))
    else U.Builder.call b ~from:th ~target:"IO" "setOut" ~args:[ fused ]
  done;
  U.Builder.finish b

let wide ~seed ~branches ~depth =
  let state = Random.State.make [| seed |] in
  let b = U.Builder.create (Printf.sprintf "wide%d" seed) in
  let name bi d = Printf.sprintf "B%d_%d" bi d in
  let threads =
    ("SRC" :: List.concat_map
       (fun bi -> List.init depth (fun d -> name bi d))
       (List.init branches (fun bi -> bi)))
    @ [ "SNK" ]
  in
  List.iter (U.Builder.thread b) threads;
  U.Builder.io_device b "IO";
  List.iter (fun th -> U.Builder.passive_object b ~cls:("W" ^ th) ("w" ^ th)) threads;
  let bytes () = 1 + Random.State.int state 16 in
  let work_token th = arg ("w" ^ th) (payload 4) in
  let send ~src ~dst =
    let token = arg (Printf.sprintf "t_%s_%s" src dst) (payload (bytes ())) in
    U.Builder.call b ~from:src ~target:("w" ^ src)
      (Printf.sprintf "pack_%s_%s" src dst)
      ~args:[ work_token src ] ~result:token;
    U.Builder.call b ~from:src ~target:dst (Printf.sprintf "Set_%s_%s" src dst)
      ~args:[ token ];
    token
  in
  U.Builder.call b ~from:"SRC" ~target:"IO" "getIn" ~result:(arg "x0" (payload 4));
  U.Builder.call b ~from:"SRC" ~target:"wSRC" "work"
    ~args:[ arg "x0" (payload 4) ]
    ~result:(work_token "SRC");
  let gathered =
    List.map
      (fun bi ->
        List.fold_left
          (fun prev d ->
            let th = name bi d in
            let token = send ~src:prev ~dst:th in
            U.Builder.call b ~from:th ~target:("w" ^ th) "work" ~args:[ token ]
              ~result:(work_token th);
            th)
          "SRC"
          (List.init depth (fun d -> d)))
      (List.init branches (fun bi -> bi))
  in
  let inputs = List.map (fun last -> send ~src:last ~dst:"SNK") gathered in
  U.Builder.call b ~from:"SNK" ~target:"wSNK" "work" ~args:inputs
    ~result:(work_token "SNK");
  U.Builder.call b ~from:"SNK" ~target:"IO" "setOut" ~args:[ work_token "SNK" ];
  U.Builder.finish b

let monolithic ~seed ~calls =
  let state = Random.State.make [| seed |] in
  let b = U.Builder.create (Printf.sprintf "mono%d" seed) in
  U.Builder.thread b "T";
  U.Builder.io_device b "IO";
  U.Builder.passive_object b ~cls:"Work" "w";
  let f32 = U.Datatype.D_float in
  U.Builder.call b ~from:"T" ~target:"IO" "getIn" ~result:(arg "t0" f32);
  let tokens = ref [ "t0" ] in
  for i = 1 to calls do
    let n_args = 1 + Random.State.int state (min 3 (List.length !tokens)) in
    let args =
      List.init n_args (fun _ ->
          arg (List.nth !tokens (Random.State.int state (List.length !tokens))) f32)
      |> List.sort_uniq compare
    in
    let result = Printf.sprintf "t%d" i in
    U.Builder.call b ~from:"T" ~target:"w" (Printf.sprintf "f%d" i) ~args
      ~result:(arg result f32);
    tokens := result :: !tokens
  done;
  U.Builder.call b ~from:"T" ~target:"IO" "setOut" ~args:[ arg (List.hd !tokens) f32 ];
  U.Builder.finish b
