module S = Umlfront_simulink.System
module B = Umlfront_simulink.Block
module Model = Umlfront_simulink.Model
module Sdf = Umlfront_dataflow.Sdf
module Exec = Umlfront_dataflow.Exec
module Compiled = Umlfront_dataflow.Compiled
module Kpn = Umlfront_dataflow.Kpn
module Gen_threads = Umlfront_codegen.Gen_threads
module Gen_kpn = Umlfront_codegen.Gen_kpn
module Obs = Umlfront_obs

type backend = Seq | Compiled_exec | Kpn | C | Kpn_src

let all_backends = [ Seq; Compiled_exec; Kpn; C; Kpn_src ]

let backend_name = function
  | Seq -> "seq"
  | Compiled_exec -> "compiled"
  | Kpn -> "kpn"
  | C -> "c"
  | Kpn_src -> "kpn-src"

let backend_of_string = function
  | "seq" -> Ok Seq
  | "compiled" -> Ok Compiled_exec
  | "kpn" -> Ok Kpn
  | "c" -> Ok C
  | "kpn-src" | "kpn_src" -> Ok Kpn_src
  | other ->
      Error
        (Printf.sprintf
           "unknown backend %S (expected seq, compiled, kpn, c or kpn-src)" other)

let backends_of_string csv =
  let rec parse acc = function
    | [] -> Ok (List.rev acc)
    | name :: rest -> (
        match backend_of_string (String.trim name) with
        | Ok b -> parse (b :: acc) rest
        | Error e -> Error e)
  in
  parse [] (String.split_on_char ',' csv)

(* Which executor produces the reference traces every backend is
   diffed against.  [`Seq] is [Exec.run]; [`Compiled] is the compiled
   flat interpreter run sequentially — selecting it turns every
   conformance check (and the fuzzer) into a differential test of the
   compiled executor against all the other backends. *)
type engine = [ `Seq | `Compiled ]

let engine_name = function `Seq -> "seq" | `Compiled -> "compiled"

let engine_of_string = function
  | "seq" -> Ok `Seq
  | "compiled" -> Ok `Compiled
  | other -> Error (Printf.sprintf "unknown engine %S (expected seq or compiled)" other)

(* Where the first divergent token came from: the block that produced
   it, on which firing, over which channel.  Computed from the SDF
   graph (the pred edge of the divergent Outport), so it is available
   even for backends that run out of process — the same identity the
   runtime token tracer (Umlfront_obs.Telemetry) records. *)
type token_provenance = {
  prov_block : string;
  prov_firing : int; (* 1-based firing index of the producer *)
  prov_channel : string; (* canonical "src/p->dst/q" *)
  prov_protocols : string list;
}

type disagreement =
  | Trace of {
      round : int;
      port : string;
      expected : float;
      actual : float;
      provenance : token_provenance option;
    }
  | Crash of string
  | Structure of string

type verdict = Agree | Disagree of disagreement | Backend_unavailable of string

type report = {
  model_name : string;
  rounds : int;
  outputs : string list;
  verdicts : (backend * verdict) list;
}

let contains_substring haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub haystack i nn = needle || at (i + 1)) in
  nn = 0 || at 0

(* --- trace diffing -------------------------------------------------- *)

let sample_equal ~tol a b =
  (Float.is_nan a && Float.is_nan b) || Float.abs (a -. b) <= tol

(* The token behind output [port]'s sample in [round]: in an SDF round
   each edge carries exactly one token, so it is the (round+1)-th token
   the Outport's producer pushed over its incoming edge. *)
let port_provenance sdf port round =
  match Sdf.preds sdf port with
  | (e : Sdf.edge) :: _ ->
      Some
        {
          prov_block = e.Sdf.edge_src;
          prov_firing = round + 1;
          prov_channel = Sdf.channel_name e;
          prov_protocols = Sdf.edge_protocols e;
        }
  | [] -> None

(* First divergence, scanning round-major then in Outport order, so
   the reported counterexample is the earliest observable one.
   [provenance] resolves (port, round) to the divergent token's origin
   when the caller has a graph to resolve against. *)
let diff_traces ?(provenance = fun _ _ -> None) ~tol ~rounds ~outputs ~reference
    actual =
  match
    List.find_opt (fun port -> not (List.mem_assoc port actual)) outputs
  with
  | Some port -> Some (Structure (Printf.sprintf "no trace for output port %s" port))
  | None ->
      let rec per_round r =
        if r >= rounds then None
        else
          match
            List.find_map
              (fun port ->
                let expected = (List.assoc port reference).(r) in
                let arr = List.assoc port actual in
                let actual_v = if r < Array.length arr then arr.(r) else Float.nan in
                if sample_equal ~tol expected actual_v then None
                else
                  Some
                    (Trace
                       {
                         round = r;
                         port;
                         expected;
                         actual = actual_v;
                         provenance = provenance port r;
                       }))
              outputs
          with
          | Some d -> Some d
          | None -> per_round (r + 1)
      in
      per_round 0

(* --- backends ------------------------------------------------------- *)

let seq_traces ~rounds sdf = (Exec.run ~rounds sdf).Exec.traces

(* The compiled backend runs on the caller's pool when there is one —
   the batched work-stealing engine — and sequentially otherwise, as
   [Compiled.run] itself does.  It never creates domains of its own: a
   served /api/conform runs inside a daemon worker, where spawning and
   joining a throwaway pool per call costs more than the check. *)
let compiled_traces ?pool ~rounds sdf = (Compiled.run ?pool ~rounds sdf).Exec.traces

(* The KPN network as emitted by [Kpn.of_sdf], but with every
   top-level Outport process replaced by a sink that records one
   sample per round instead of keeping only the last one — that is
   what makes the process network diffable against the reference. *)
let kpn_traces ~rounds sdf =
  let record = List.map (fun port -> (port, Array.make rounds 0.0)) sdf.Sdf.graph_outputs in
  let collecting_sink (a : Sdf.actor) arr =
    let ins = Sdf.preds sdf a.Sdf.actor_name in
    let n = max a.Sdf.actor_inputs 1 in
    let read_round k =
      let values = Array.make n 0.0 in
      let rec loop = function
        | [] -> k values
        | (e : Sdf.edge) :: rest ->
            Kpn.Read
              ( Kpn.channel_name e,
                fun v ->
                  if e.Sdf.edge_dst_port >= 1 && e.Sdf.edge_dst_port <= n then
                    values.(e.Sdf.edge_dst_port - 1) <- v;
                  loop rest )
      in
      loop ins
    in
    let rec go r =
      if r = rounds then Kpn.Done 0.0
      else
        read_round (fun values ->
            arr.(r) <- (if a.Sdf.actor_inputs > 0 then values.(0) else 0.0);
            go (r + 1))
    in
    go 0
  in
  let network =
    List.map
      (fun (name, p) ->
        match List.assoc_opt name record with
        | Some arr ->
            let a = Option.get (Sdf.find_actor sdf name) in
            (name, collecting_sink a arr)
        | None -> (name, p))
      (Kpn.of_sdf ~rounds sdf)
  in
  ignore (Kpn.run ~fuel:(max 100_000 (1000 * rounds * List.length sdf.Sdf.actors)) network);
  record

let have_cc () = Sys.command "command -v cc >/dev/null 2>&1" = 0

let temp_dir prefix =
  let dir = Filename.temp_file prefix "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  dir

let read_process_lines cmd =
  let ic = Unix.open_process_in cmd in
  let rec loop acc =
    match input_line ic with line -> loop (line :: acc) | exception End_of_file -> acc
  in
  let lines = List.rev (loop []) in
  ignore (Unix.close_process_in ic);
  lines

let rm_rf dir =
  if Sys.file_exists dir then (
    Array.iter (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (Sys.readdir dir);
    try Sys.rmdir dir with Sys_error _ -> ())

(* Compile the generated multithreaded C with cc, run it and collect
   its "<port> <round> <value>" stdout back into per-port traces.  The
   output lines are matched positionally: the generator prints the
   Outports in [graph_outputs] order every round. *)
let c_traces ~rounds m sdf =
  let outputs = sdf.Sdf.graph_outputs in
  let dir = temp_dir "umlfront_conform_c" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  Gen_threads.save ~rounds m ~dir;
  let bin = Filename.concat dir "model" in
  let log = Filename.concat dir "cc.log" in
  let cmd =
    Printf.sprintf "cc -pthread -o %s %s/model.c %s/sfunctions.c %s/fifo.c -lm >%s 2>&1"
      (Filename.quote bin) (Filename.quote dir) (Filename.quote dir) (Filename.quote dir)
      (Filename.quote log)
  in
  if Sys.command cmd <> 0 then
    failwith
      (Printf.sprintf "cc failed: %s"
         (try In_channel.with_open_bin log In_channel.input_all with Sys_error _ -> "?"));
  let lines = read_process_lines (Filename.quote bin ^ " 2>/dev/null") in
  let expected_lines = rounds * List.length outputs in
  if List.length lines <> expected_lines then
    failwith
      (Printf.sprintf "C program printed %d lines, expected %d" (List.length lines)
         expected_lines);
  let traces = List.map (fun port -> (port, Array.make rounds 0.0)) outputs in
  List.iteri
    (fun i line ->
      let round = i / List.length outputs in
      let port = List.nth outputs (i mod List.length outputs) in
      match String.split_on_char ' ' line with
      | [ _label; r; v ] when int_of_string_opt r = Some round ->
          (List.assoc port traces).(round) <- float_of_string v
      | _ -> failwith (Printf.sprintf "unparseable C output line %d: %s" (i + 1) line))
    lines;
  traces

(* Structural conformance of the emitted model_kpn.ml source: every
   channel constant is present, every output port is in the printed
   filter, and the embedded .mdl text round-trips to a flattened graph
   with the reference's actors and edges. *)
let kpn_src_verdict ~rounds m sdf =
  let src = Gen_kpn.generate ~rounds m in
  let missing_channel =
    List.find_opt
      (fun (e : Sdf.edge) -> not (contains_substring src (Kpn.channel_name e)))
      sdf.Sdf.edges
  in
  let missing_output =
    List.find_opt
      (fun port -> not (contains_substring src (Printf.sprintf "%S" port)))
      sdf.Sdf.graph_outputs
  in
  match (missing_channel, missing_output) with
  | Some e, _ ->
      Disagree
        (Structure
           (Printf.sprintf "emitted source misses channel %s" (Kpn.channel_name e)))
  | None, Some port ->
      Disagree (Structure (Printf.sprintf "emitted source misses output %s" port))
  | None, None -> (
      let embedded =
        let open_tag = "{mdl|" and close_tag = "|mdl}" in
        let find_from tag start =
          let n = String.length tag in
          let rec at i =
            if i + n > String.length src then None
            else if String.sub src i n = tag then Some i
            else at (i + 1)
          in
          at start
        in
        match find_from open_tag 0 with
        | None -> None
        | Some start ->
            let body_start = start + String.length open_tag in
            Option.map
              (fun stop -> String.sub src body_start (stop - body_start))
              (find_from close_tag body_start)
      in
      match embedded with
      | None -> Disagree (Structure "emitted source has no embedded {mdl|...|mdl} text")
      | Some mdl -> (
          match
            Sdf.of_model (Umlfront_simulink.Mdl_parser.parse_string mdl)
          with
          | exception e ->
              Disagree
                (Structure ("embedded model does not flatten: " ^ Printexc.to_string e))
          | sdf' ->
              let names (s : Sdf.t) =
                List.sort compare
                  (List.map (fun (a : Sdf.actor) -> a.Sdf.actor_name) s.Sdf.actors)
              in
              let links (s : Sdf.t) =
                List.sort compare
                  (List.map
                     (fun (e : Sdf.edge) ->
                       (e.Sdf.edge_src, e.Sdf.edge_src_port, e.Sdf.edge_dst,
                        e.Sdf.edge_dst_port))
                     s.Sdf.edges)
              in
              if names sdf' <> names sdf then
                Disagree (Structure "embedded model flattens to different actors")
              else if links sdf' <> links sdf then
                Disagree (Structure "embedded model flattens to different edges")
              else Agree))

(* --- the check ------------------------------------------------------ *)

let tolerance = function
  | Seq -> 0.0 (* re-run of the same executor: bit-identical *)
  | Compiled_exec -> 0.0 (* compiled interpreter replicates Exec bit for bit *)
  | Kpn -> 1e-9
  | C -> 1e-6 (* the C program prints %.9f *)
  | Kpn_src -> 0.0

let apply_corrupt corrupt backend traces =
  match corrupt with
  | Some (b, f) when b = backend ->
      List.map (fun (port, arr) -> (port, Array.map f arr)) traces
  | _ -> traces

let check ?(backends = all_backends) ?(engine = `Seq) ?(rounds = 10) ?pool ?corrupt
    (m : Model.t) =
  Obs.Trace.with_span ~cat:"conform" "conform.check"
    ~args:(fun () ->
      [
        ("model", Obs.Json.String m.Model.model_name);
        ("rounds", Obs.Json.Int rounds);
        ("engine", Obs.Json.String (engine_name engine));
      ])
  @@ fun () ->
  let sdf = Sdf.of_model m in
  (* The reference must execute; its exceptions propagate. *)
  let reference =
    match engine with
    | `Seq -> seq_traces ~rounds sdf
    | `Compiled -> (Compiled.run ~rounds sdf).Exec.traces
  in
  let outputs = sdf.Sdf.graph_outputs in
  let traced backend produce =
    match produce () with
    | traces -> (
        let traces = apply_corrupt corrupt backend traces in
        match
          diff_traces
            ~provenance:(port_provenance sdf)
            ~tol:(tolerance backend) ~rounds ~outputs ~reference traces
        with
        | Some d -> Disagree d
        | None -> Agree)
    | exception e -> Disagree (Crash (Printexc.to_string e))
  in
  let verdict backend =
    Obs.Trace.with_span ~cat:"conform" ("conform.backend." ^ backend_name backend)
    @@ fun () ->
    match backend with
    | Seq -> traced Seq (fun () -> seq_traces ~rounds sdf)
    | Compiled_exec -> traced Compiled_exec (fun () -> compiled_traces ?pool ~rounds sdf)
    | Kpn -> traced Kpn (fun () -> kpn_traces ~rounds sdf)
    | C ->
        if not (have_cc ()) then Backend_unavailable "no C compiler (cc) on PATH"
        else traced C (fun () -> c_traces ~rounds m sdf)
    | Kpn_src -> (
        try kpn_src_verdict ~rounds m sdf
        with e -> Disagree (Crash (Printexc.to_string e)))
  in
  let verdicts = List.map (fun b -> (b, verdict b)) backends in
  Obs.Metrics.incr "conform.checks";
  List.iter
    (fun (_, v) ->
      Obs.Metrics.incr
        (match v with
        | Agree -> "conform.agree"
        | Disagree _ -> "conform.disagree"
        | Backend_unavailable _ -> "conform.unavailable"))
    verdicts;
  { model_name = m.Model.model_name; rounds; outputs; verdicts }

let disagreements report =
  List.filter_map
    (fun (b, v) -> match v with Disagree d -> Some (b, d) | _ -> None)
    report.verdicts

let agree report = disagreements report = []

(* --- rendering ------------------------------------------------------ *)

let provenance_text p =
  Printf.sprintf "token from block %s, firing %d, channel %s%s" p.prov_block
    p.prov_firing p.prov_channel
    (match p.prov_protocols with
    | [] -> ""
    | l -> " [" ^ String.concat "," l ^ "]")

let disagreement_text = function
  | Trace { round; port; expected; actual; provenance } ->
      Printf.sprintf "first divergence at round %d, port %s: reference %.9g, backend %.9g%s"
        round port expected actual
        (match provenance with
        | Some p -> "; " ^ provenance_text p
        | None -> "")
  | Crash msg -> "backend crashed: " ^ msg
  | Structure msg -> "structural mismatch: " ^ msg

let verdict_text = function
  | Agree -> "agree"
  | Disagree d -> "DISAGREE — " ^ disagreement_text d
  | Backend_unavailable why -> "unavailable (" ^ why ^ ")"

let render report =
  let b = Buffer.create 256 in
  Printf.bprintf b "conformance of %s over %d rounds (%d output port%s)\n"
    report.model_name report.rounds (List.length report.outputs)
    (if List.length report.outputs = 1 then "" else "s");
  List.iter
    (fun (backend, v) ->
      Printf.bprintf b "  %-8s %s\n" (backend_name backend) (verdict_text v))
    report.verdicts;
  Buffer.contents b

let provenance_json p =
  Obs.Json.Obj
    [
      ("block", Obs.Json.String p.prov_block);
      ("firing", Obs.Json.Int p.prov_firing);
      ("channel", Obs.Json.String p.prov_channel);
      ( "protocols",
        Obs.Json.List (List.map (fun s -> Obs.Json.String s) p.prov_protocols) );
    ]

let disagreement_json = function
  | Trace { round; port; expected; actual; provenance } ->
      Obs.Json.Obj
        ([
           ("kind", Obs.Json.String "trace");
           ("round", Obs.Json.Int round);
           ("port", Obs.Json.String port);
           ("expected", Obs.Json.Float expected);
           ("actual", Obs.Json.Float actual);
         ]
        @
        match provenance with
        | Some p -> [ ("provenance", provenance_json p) ]
        | None -> [])
  | Crash msg ->
      Obs.Json.Obj [ ("kind", Obs.Json.String "crash"); ("message", Obs.Json.String msg) ]
  | Structure msg ->
      Obs.Json.Obj
        [ ("kind", Obs.Json.String "structure"); ("message", Obs.Json.String msg) ]

let to_json report =
  Obs.Json.Obj
    [
      ("model", Obs.Json.String report.model_name);
      ("rounds", Obs.Json.Int report.rounds);
      ("outputs", Obs.Json.List (List.map (fun p -> Obs.Json.String p) report.outputs));
      ( "verdicts",
        Obs.Json.Obj
          (List.map
             (fun (backend, v) ->
               ( backend_name backend,
                 match v with
                 | Agree -> Obs.Json.Obj [ ("verdict", Obs.Json.String "agree") ]
                 | Disagree d ->
                     Obs.Json.Obj
                       [
                         ("verdict", Obs.Json.String "disagree");
                         ("disagreement", disagreement_json d);
                       ]
                 | Backend_unavailable why ->
                     Obs.Json.Obj
                       [
                         ("verdict", Obs.Json.String "unavailable");
                         ("reason", Obs.Json.String why);
                       ] ))
             report.verdicts) );
    ]

(* --- decoding -------------------------------------------------------- *)

(* The inverses of {!to_json} and its helpers.  They exist so the wire
   format of `umlfront conform --format json` (and the serving layer's
   /api/conform, which emits the very same bytes) is provably
   round-trippable: encode, decode, compare.  Strict on required
   members, tolerant of unknown ones. *)

let json_str key json =
  match Obs.Json.member key json with
  | Some (Obs.Json.String s) -> Some s
  | _ -> None

let json_int key json =
  match Obs.Json.member key json with Some (Obs.Json.Int i) -> Some i | _ -> None

let json_num key json = Option.bind (Obs.Json.member key json) Obs.Json.number

let provenance_of_json json =
  match
    ( json_str "block" json,
      json_int "firing" json,
      json_str "channel" json,
      Obs.Json.member "protocols" json )
  with
  | Some prov_block, Some prov_firing, Some prov_channel, Some (Obs.Json.List ps) ->
      let protocols =
        List.filter_map
          (function Obs.Json.String s -> Some s | _ -> None)
          ps
      in
      Ok { prov_block; prov_firing; prov_channel; prov_protocols = protocols }
  | _ -> Error "provenance: missing block/firing/channel/protocols"

let disagreement_of_json json =
  match json_str "kind" json with
  | Some "trace" -> (
      match
        ( json_int "round" json,
          json_str "port" json,
          json_num "expected" json,
          json_num "actual" json )
      with
      | Some round, Some port, Some expected, Some actual -> (
          match Obs.Json.member "provenance" json with
          | None -> Ok (Trace { round; port; expected; actual; provenance = None })
          | Some p -> (
              match provenance_of_json p with
              | Ok prov ->
                  Ok (Trace { round; port; expected; actual; provenance = Some prov })
              | Error msg -> Error msg))
      | _ -> Error "trace disagreement: missing round/port/expected/actual")
  | Some "crash" -> (
      match json_str "message" json with
      | Some m -> Ok (Crash m)
      | None -> Error "crash disagreement: missing message")
  | Some "structure" -> (
      match json_str "message" json with
      | Some m -> Ok (Structure m)
      | None -> Error "structure disagreement: missing message")
  | Some other -> Error (Printf.sprintf "unknown disagreement kind %S" other)
  | None -> Error "disagreement: missing kind"

let verdict_of_json json =
  match json_str "verdict" json with
  | Some "agree" -> Ok Agree
  | Some "disagree" -> (
      match Obs.Json.member "disagreement" json with
      | Some d -> (
          match disagreement_of_json d with
          | Ok d -> Ok (Disagree d)
          | Error msg -> Error msg)
      | None -> Error "disagree verdict: missing disagreement")
  | Some "unavailable" -> (
      match json_str "reason" json with
      | Some why -> Ok (Backend_unavailable why)
      | None -> Error "unavailable verdict: missing reason")
  | Some other -> Error (Printf.sprintf "unknown verdict %S" other)
  | None -> Error "verdict: missing \"verdict\""

let report_of_json json =
  match (json_str "model" json, json_int "rounds" json) with
  | Some model_name, Some rounds -> (
      let outputs =
        match Obs.Json.member "outputs" json with
        | Some (Obs.Json.List os) ->
            List.filter_map
              (function Obs.Json.String s -> Some s | _ -> None)
              os
        | _ -> []
      in
      match Obs.Json.member "verdicts" json with
      | Some (Obs.Json.Obj fields) ->
          let rec decode acc = function
            | [] -> Ok { model_name; rounds; outputs; verdicts = List.rev acc }
            | (name, v) :: rest -> (
                match backend_of_string name with
                | Error msg -> Error msg
                | Ok backend -> (
                    match verdict_of_json v with
                    | Ok verdict -> decode ((backend, verdict) :: acc) rest
                    | Error msg ->
                        Error (Printf.sprintf "backend %s: %s" name msg)))
          in
          decode [] fields
      | _ -> Error "report: missing \"verdicts\" object")
  | _ -> Error "report: missing model/rounds"
