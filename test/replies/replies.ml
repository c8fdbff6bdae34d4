(* Prints one line per (model, request): the model's name, the request,
   the reply's status and the MD5 of its body.  The models are the
   first 35 of the benchmark's seed-7 pool and the five bundled ones;
   each goes through its XMI text, as a served body does. *)

module R = Umlfront_casestudies.Random_models
module Cs = Umlfront_casestudies
module Api = Umlfront_serve.Api
module Http = Umlfront_serve.Http

(* Model [k] of the benchmark pool of [seed] (bench/e2e/workload.ml). *)
let model ~seed k =
  let threads = 4 + (k * 8 mod 21) in
  let gen = (seed * 100_003) + k in
  let variant = k / 5 in
  match k mod 5 with
  | 0 -> R.pipeline ~seed:gen ~threads ~extra_edges:(threads / 2)
  | 1 -> R.cyclic ~seed:gen ~stages:(threads - 2)
  | 2 -> R.chatty ~seed:gen ~threads ~width:(1 + (variant mod 3))
  | 3 ->
      R.multi_cpu ~seed:gen ~threads ~cpus:(2 + (variant mod 3)) ~extra_edges:(threads / 2)
  | _ ->
      let depth = 1 + (variant mod 4) in
      R.wide ~seed:gen ~branches:(max 1 ((threads - 2) / depth)) ~depth

let models () =
  List.init 35 (model ~seed:7)
  @ [
      Cs.Didactic.model ();
      Cs.Crane_system.model ();
      Cs.Synthetic_system.model ();
      Cs.Mjpeg_system.model ();
      Cs.Elevator_system.model ();
    ]

let targets =
  [
    "/api/lint";
    "/api/transform";
    "/api/transform?strategy=linear";
    "/api/simulate?rounds=500";
    "/api/simulate?engine=seq&rounds=50";
    "/api/conform?rounds=20&backends=seq,compiled,kpn";
    "/api/generate/c";
    "/api/generate/java";
    "/api/generate/kpn";
  ]

let () =
  List.iter
    (fun m ->
      let name = m.Umlfront_uml.Model.model_name in
      let uml =
        match Api.parse_model (Umlfront_uml.Xmi.to_string m) with
        | Ok uml -> uml
        | Error _ -> failwith ("replies: the XMI of " ^ name ^ " does not parse")
      in
      List.iter
        (fun target ->
          let path, query = Http.split_target target in
          let endpoint = Option.get (Api.endpoint_of_path path) in
          let opts = Result.get_ok (Api.options_of_query query) in
          let o = Api.run endpoint opts uml in
          Printf.printf "%s %s %d %s\n" name target o.Api.status
            (Digest.to_hex (Digest.string o.Api.body)))
        targets)
    (models ())
