(* The output checker: what a correct 200 body looks like, per
   endpoint.  Random models are lint-clean and execute on every
   backend, so any finding, disagreement or short trace is a wrong
   answer, not a property of the input. *)

module Api = Umlfront_serve.Api
module Json = Umlfront_obs.Json
module Diagnostic = Umlfront_analysis.Diagnostic
module Conform = Umlfront_conformance.Conform

let ( let* ) = Result.bind

let member key json =
  Option.to_result ~none:("missing member " ^ key) (Json.member key json)

let no_findings json =
  let* _file, ds = Diagnostic.list_of_json json in
  if ds = [] then Ok ()
  else Error (Printf.sprintf "%d lint finding(s), first: %s" (List.length ds)
                (Diagnostic.to_line (List.hd ds)))

let transform json =
  let* mdl = member "mdl" json in
  match mdl with
  | Json.String text -> (
      match Umlfront_simulink.Mdl_parser.parse_string text with
      | caam -> (
          match Umlfront_simulink.Caam.check caam with
          | [] -> Ok ()
          | e :: _ -> Error ("mdl violates CAAM: " ^ e))
      | exception e -> Error ("mdl does not reparse: " ^ Printexc.to_string e))
  | _ -> Error "mdl is not a string"

let rounds (r : Workload.request) =
  Option.fold ~none:Api.default_options.Api.rounds ~some:int_of_string
    (List.assoc_opt "rounds" r.Workload.query)

let simulate r json =
  let* traces = member "traces" json in
  let expected = rounds r in
  match Json.items traces with
  | [] -> Error "no output traces"
  | ports ->
      List.fold_left
        (fun acc port ->
          let* () = acc in
          let* samples = member "samples" port in
          let n = List.length (Json.items samples) in
          if n = expected then Ok ()
          else Error (Printf.sprintf "%d samples, expected %d" n expected))
        (Ok ()) ports

let generate json =
  let* () = Result.bind (member "diagnostics" json) no_findings in
  let* files = member "files" json in
  match files with
  | Json.Obj [] -> Error "no generated files"
  | Json.Obj fs ->
      if List.for_all (function _, Json.String s -> s <> "" | _ -> false) fs then Ok ()
      else Error "empty generated file"
  | _ -> Error "files is not an object"

(** [Ok ()] when [body] is a correct answer to [r]. *)
let response (r : Workload.request) ~status ~body =
  if status <> 200 then Error (Printf.sprintf "status %d: %s" status body)
  else
    let* json = Json.parse body in
    match r.Workload.endpoint with
    | Api.Lint -> (
        match json with
        | Json.List [ entry ] -> no_findings entry
        | _ -> Error "lint body is not a one-model list")
    | Api.Transform -> transform json
    | Api.Simulate -> simulate r json
    | Api.Conform ->
        let* report = Conform.report_of_json json in
        if Conform.agree report then Ok () else Error "backends disagree"
    | Api.Generate _ -> generate json
