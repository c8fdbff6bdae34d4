module U = Umlfront_uml
module Core = Umlfront_core
module Dataflow = Umlfront_dataflow
module Codegen = Umlfront_codegen
module A = Umlfront_analysis
module Conf = Umlfront_conformance.Conform
module Obs = Umlfront_obs
module Json = Umlfront_obs.Json

exception Timeout

type endpoint =
  | Lint
  | Transform
  | Simulate
  | Conform
  | Generate of [ `C | `Java | `Kpn ]

let endpoint_name = function
  | Lint -> "lint"
  | Transform -> "transform"
  | Simulate -> "simulate"
  | Conform -> "conform"
  | Generate `C -> "generate/c"
  | Generate `Java -> "generate/java"
  | Generate `Kpn -> "generate/kpn"

let all_endpoints =
  [ Lint; Transform; Simulate; Conform; Generate `C; Generate `Java; Generate `Kpn ]

let endpoint_of_path path =
  List.find_opt (fun e -> path = "/api/" ^ endpoint_name e) all_endpoints

type options = {
  strategy : Core.Flow.allocation_strategy;
  rounds : int;
  engine : Conf.engine;
  engine_given : bool;
  backends : Conf.backend list option;
  file : string option;
  trace : bool;
}

let default_options =
  {
    strategy = Core.Flow.Prefer_deployment;
    rounds = 10;
    engine = `Seq;
    engine_given = false;
    backends = None;
    file = None;
    trace = false;
  }

(* The one place an endpoint's engine is decided: the engine the caller
   gave, else the compiled plan to simulate and the oracle, Exec.run,
   as conform's reference. *)
let engine endpoint opts =
  if opts.engine_given then opts.engine
  else
    match endpoint with
    | Simulate -> `Compiled
    | Lint | Transform | Conform | Generate _ -> `Seq

let max_rounds = 10_000

let count_of_string ~what value =
  match int_of_string_opt value with
  | Some n when n >= 1 -> Ok n
  | _ -> Error (Printf.sprintf "invalid %s %S (expected an integer >= 1)" what value)

(* The CLI's flags go through the same parsers; only the round cap is
   HTTP's own, a bound on untrusted input. *)
let options_of_query query =
  let ( let* ) = Result.bind in
  let rec fold opts cpus = function
    | [] -> Ok { opts with strategy = Core.Flow.with_cpus cpus opts.strategy }
    | (key, value) :: rest -> (
        match key with
        | "strategy" ->
            let* strategy = Core.Flow.strategy_of_string value in
            fold { opts with strategy } cpus rest
        | "cpus" ->
            let* n = count_of_string ~what:"cpus" value in
            fold opts (Some n) rest
        | "rounds" ->
            let* rounds = count_of_string ~what:"rounds" value in
            if rounds > max_rounds then
              Error
                (Printf.sprintf "invalid rounds %S (expected 1..%d)" value max_rounds)
            else fold { opts with rounds } cpus rest
        | "engine" ->
            let* engine = Conf.engine_of_string value in
            fold { opts with engine; engine_given = true } cpus rest
        | "backends" ->
            let* backends = Conf.backends_of_string value in
            fold { opts with backends = Some backends } cpus rest
        | "file" -> fold { opts with file = Some value } cpus rest
        | "trace" -> (
            match value with
            | "1" | "true" -> fold { opts with trace = true } cpus rest
            | "0" | "false" -> fold { opts with trace = false } cpus rest
            | other -> Error (Printf.sprintf "invalid trace %S" other))
        | other -> Error (Printf.sprintf "unknown query parameter %S" other))
  in
  fold default_options None query

(* --- error bodies ---------------------------------------------------- *)

(* Errors wear the same JSON clothes as lint findings: a Diagnostic.t
   list rendered through the one shared encoder.  UF901 = the request
   body is not parseable XMI; UF902 = the model parsed but the flow (or
   an executor) rejected it.  Codes are stable, like the lint catalog
   (doc/serving.md). *)

let diagnostic_body d =
  Json.to_string (Json.List [ A.Diagnostic.list_to_json [ d ] ]) ^ "\n"

let parse_model body =
  match U.Xmi.of_string body with
  | model -> Ok model
  | exception Umlfront_xml.Xml.Parse_error { line; column; message } ->
      Error
        (A.Diagnostic.error ~code:"UF901" ~path:[ "request"; "body" ]
           ~hint:"POST the XMI text of a UML model, as written by `umlfront example`"
           (Printf.sprintf "malformed XMI at %d:%d: %s" line column message))
  | exception (Failure m | Invalid_argument m) ->
      Error
        (A.Diagnostic.error ~code:"UF901" ~path:[ "request"; "body" ]
           ~hint:"POST the XMI text of a UML model, as written by `umlfront example`"
           (Printf.sprintf "malformed XMI: %s" m))

(* --- cache identity -------------------------------------------------- *)

(* Only the options an endpoint reads, so that requests which cannot
   differ in their answer share one entry, then the strategy, which
   every endpoint reads. *)
let key_options endpoint opts =
  let rounds = "rounds=" ^ string_of_int opts.rounds in
  let engine = "engine=" ^ Conf.engine_name (engine endpoint opts) in
  String.concat "\n"
    (("endpoint=" ^ endpoint_name endpoint)
    ::
    (match endpoint with
    | Lint -> [ "file=" ^ Option.value opts.file ~default:"" ]
    | Transform -> []
    | Simulate -> [ rounds; engine ]
    | Conform ->
        [
          rounds;
          engine;
          ( "backends="
          ^
          match opts.backends with
          | None -> "all"
          | Some bs -> String.concat "," (List.map Conf.backend_name bs) );
        ]
    | Generate _ -> [ rounds ])
    @ [ "strategy=" ^ Core.Flow.strategy_name opts.strategy ])

(* The options, then the body's MD5: fixed-length and last, so no two
   (options, body) pairs spell the same key. *)
let raw_key endpoint opts body = key_options endpoint opts ^ "\n" ^ Digest.string body

(* The parsed model's own bytes, not its printed XMI: the model is
   plain immutable data, so equal models marshal to equal bytes, and
   [No_sharing] keeps them independent of how the parser shared its
   strings.  The id is the MD5 of the options and of the bytes' MD5. *)
let cache_key endpoint opts uml =
  let options = key_options endpoint opts
  and model = Marshal.to_string (uml : U.Model.t) [ Marshal.No_sharing ] in
  {
    Cache.id = Digest.to_hex (Digest.string (options ^ "\n" ^ Digest.string model));
    options;
    model;
  }

(* --- computations ---------------------------------------------------- *)

let transform opts uml = Core.Flow.run ~strategy:opts.strategy uml

(* What every endpoint but transform computes on: no reply of theirs
   holds positions or .mdl text, and the KPN generator lays out the
   model it embeds itself. *)
let caam opts uml = Core.Flow.synthesize ~strategy:opts.strategy uml

let lint uml caam = A.Lint.check ~uml caam

let simulate ?pool opts sdf =
  match engine Simulate opts with
  | `Seq -> Dataflow.Exec.run ~rounds:opts.rounds sdf
  | `Compiled -> Dataflow.Compiled.run ?pool ~rounds:opts.rounds sdf

let conform ?pool opts caam =
  Conf.check ?backends:opts.backends ~engine:(engine Conform opts) ~rounds:opts.rounds
    ?pool caam

let files lang opts caam =
  let rounds = opts.rounds in
  match lang with
  | `C -> (Codegen.Gen_threads.generate ~rounds caam).Codegen.Gen_threads.files
  | `Java -> [ ("GeneratedModel.java", Codegen.Gen_java.generate ~rounds caam) ]
  | `Kpn -> [ ("model_kpn.ml", Codegen.Gen_kpn.generate ~rounds caam) ]
  | `Systemc -> [ ("model_sc.cpp", Codegen.Gen_systemc.generate ~rounds caam) ]

(* --- encodings ------------------------------------------------------- *)

let lint_json reports =
  Json.to_string
    (Json.List
       (List.map (fun (file, ds) -> A.Diagnostic.list_to_json ?file ds) reports))
  ^ "\n"

let conform_json report = Json.to_string (Conf.to_json report) ^ "\n"

let transform_json uml opts output =
  Json.to_string
    (Json.Obj
       [
         ("model", Json.String uml.U.Model.model_name);
         ("strategy", Json.String (Core.Flow.strategy_name opts.strategy));
         ( "allocation",
           Json.List
             (List.map
                (fun (thread, cpu) ->
                  Json.Obj
                    [
                      ("thread", Json.String thread); ("cpu", Json.String cpu);
                    ])
                output.Core.Flow.allocation) );
         ("intra_channels", Json.Int output.Core.Flow.intra_channels);
         ("inter_channels", Json.Int output.Core.Flow.inter_channels);
         ("delays_inserted", Json.Int output.Core.Flow.delays_inserted);
         ( "broken_cycles",
           Json.List
             (List.map
                (fun cycle ->
                  Json.List (List.map (fun b -> Json.String b) cycle))
                output.Core.Flow.broken_cycles) );
         ( "fsms",
           Json.List
             (List.map
                (fun (name, _) -> Json.String name)
                output.Core.Flow.fsms) );
         ("mdl", Json.String output.Core.Flow.mdl);
       ])
  ^ "\n"

let simulate_json uml opts outcome =
  Json.to_string
    (Json.Obj
       [
         ("model", Json.String uml.U.Model.model_name);
         ("rounds", Json.Int outcome.Dataflow.Exec.rounds);
         ("engine", Json.String (Conf.engine_name (engine Simulate opts)));
         ( "traces",
           Json.List
             (List.map
                (fun (port, samples) ->
                  Json.Obj
                    [
                      ("port", Json.String port);
                      ( "samples",
                        Json.List
                          (Array.to_list
                             (Array.map (fun v -> Json.Float v) samples)) );
                    ])
                outcome.Dataflow.Exec.traces) );
         ( "firings",
           Json.Obj
             (List.map
                (fun (actor, n) -> (actor, Json.Int n))
                outcome.Dataflow.Exec.firings) );
       ])
  ^ "\n"

let generate_json uml opts lang diagnostics files =
  let language = match lang with `C -> "c" | `Java -> "java" | `Kpn -> "kpn" in
  Json.to_string
    (Json.Obj
       [
         ("model", Json.String uml.U.Model.model_name);
         ("language", Json.String language);
         ("rounds", Json.Int opts.rounds);
         ("diagnostics", A.Diagnostic.list_to_json diagnostics);
         ( "files",
           Json.Obj (List.map (fun (name, text) -> (name, Json.String text)) files)
         );
       ])
  ^ "\n"

(* --- endpoints ------------------------------------------------------- *)

type outcome = { status : int; content_type : string; body : string }

let check_deadline deadline =
  match deadline with
  | Some t when Unix.gettimeofday () > t -> raise Timeout
  | _ -> ()

let compute ?deadline endpoint opts uml =
  let flow () =
    let caam = caam opts uml in
    check_deadline deadline;
    caam
  in
  match endpoint with
  | Lint -> lint_json [ (opts.file, lint uml (flow ())) ]
  | Transform ->
      let output = transform opts uml in
      check_deadline deadline;
      transform_json uml opts output
  | Simulate ->
      let sdf = Dataflow.Sdf.of_model (flow ()) in
      check_deadline deadline;
      let outcome = simulate opts sdf in
      check_deadline deadline;
      simulate_json uml opts outcome
  | Conform ->
      let report = conform opts (flow ()) in
      check_deadline deadline;
      conform_json report
  | Generate lang ->
      let caam = flow () in
      let diagnostics = lint uml caam in
      check_deadline deadline;
      let files = files lang opts caam in
      check_deadline deadline;
      generate_json uml opts lang diagnostics files

let run ?deadline endpoint opts uml =
  let rejected message =
    {
      status = 422;
      content_type = "application/json";
      body =
        diagnostic_body (A.Diagnostic.error ~code:"UF902" ~path:[ "flow" ] message);
    }
  in
  match compute ?deadline endpoint opts uml with
  | body -> { status = 200; content_type = "application/json"; body }
  | exception (Failure m | Invalid_argument m) ->
      rejected (Printf.sprintf "flow rejected the model: %s" m)
  | exception Dataflow.Exec.Deadlock cycle ->
      rejected ("deadlock (zero-delay cycle): " ^ String.concat " -> " cycle)
