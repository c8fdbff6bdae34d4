(* The four served-compilation workloads and the seeded request stream
   they draw from.

   Inputs are random UML models from Casestudies.Random_models.  Runs
   must be comparable across seeds, so the seed picks each model's
   random structure but not the mix of sizes: model [k] of a pool has
   shape [k mod 5] (pipeline, cyclic, chatty, multi_cpu, wide) and
   [4 + (8k mod 21)] threads, which walks every (shape, size) cell once
   per 105 models.  Every model is serialized to XMI before any clock
   starts; while clocks run, a request body is only spliced from those
   bytes. *)

module R = Umlfront_casestudies.Random_models
module Api = Umlfront_serve.Api

type request = {
  id : int;  (** position in the stream, warm-up included *)
  endpoint : Api.endpoint;
  query : (string * string) list;
  target : string;  (** path and query, as sent *)
  body : string;  (** XMI *)
  slot : int;
      (** [edit-hit]: which primed (model, endpoint) response this
          request must reproduce; [-1] elsewhere *)
}

(* Why each workload exists is in BENCHMARK.json and README.md. *)
type t = {
  name : string;
  warmup : int;  (** requests at the head of the stream that prime the daemon *)
  inserts : bool;  (** measured requests add to the cache (so it is filled first) *)
  stream : seed:int -> int -> request;
      (** generates the seed's models, then maps a stream index to its
          request *)
}

(* [gen] keeps generator seeds, and with them the model names the
   shapes derive, distinct across pool slots and seeds.  The shape's own
   parameters (chatty width, CPU count, wide depth) also follow [k], so
   the seed changes a model's random edges and payloads, not its size
   class. *)
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

(* A serialized model split around its name: [prefix ^ n ^ suffix] is
   the XMI of the same model called [n]. *)
type xmi = { model : string; prefix : string; suffix : string }

let serialize m =
  let name = m.Umlfront_uml.Model.model_name in
  let text = Umlfront_uml.Xmi.to_string m in
  let needle = Printf.sprintf "name=\"%s\"" name in
  let n = String.length needle in
  let rec find i =
    if i + n > String.length text then
      failwith ("workload: model name not found in the XMI of " ^ name)
    else if String.sub text i n = needle then i + String.length "name=\""
    else find (i + 1)
  in
  let at = find 0 in
  let after = at + String.length name in
  {
    model = name;
    prefix = String.sub text 0 at;
    suffix = String.sub text after (String.length text - after);
  }

let body ?name x = x.prefix ^ Option.value name ~default:x.model ^ x.suffix

let pool_size = 420
let pools = Hashtbl.create 2

(* The first [n] models of the seed's pool, generated once per seed. *)
let pool ~seed n =
  let all =
    match Hashtbl.find_opt pools seed with
    | Some p -> p
    | None ->
        let p = Array.init pool_size (fun k -> serialize (model ~seed k)) in
        Hashtbl.add pools seed p;
        p
  in
  Array.sub all 0 n

let make_request ~id (endpoint, query) ~body ~slot =
  let target =
    "/api/" ^ Api.endpoint_name endpoint
    ^
    match query with
    | [] -> ""
    | q -> "?" ^ String.concat "&" (List.map (fun (k, v) -> k ^ "=" ^ v) q)
  in
  { id; endpoint; query; target; body; slot }

let edit_endpoint i = ((if i land 1 = 0 then Api.Lint else Api.Transform), [])

(* Every request a new model: pool model [i mod n] renamed after the
   request, so each body and its cache key are distinct while the
   compute cost still follows the stratified pool. *)
let renamed models ~tag choose i =
  let x = models.(i mod Array.length models) in
  make_request ~id:i (choose i)
    ~body:(body ~name:(Printf.sprintf "%s%s%d" x.model tag i) x)
    ~slot:(-1)

let distinct choose ~seed = renamed (pool ~seed pool_size) ~tag:"r" choose

(* Transforms of distinct models, whose large replies fill the daemon's
   cache before a workload that inserts into it is measured: a
   long-running daemon serves with a full cache, and until it is full
   its heap grows and throughput climbs for several seconds. *)
let filler ~seed = renamed (pool ~seed pool_size) ~tag:"f" (fun _ -> (Api.Transform, []))

let working_set = 64

(* The warm-up primes every (model, endpoint) pair of the working set,
   so the measured phase is all hits; a measured request picks its
   model by a seeded hash and alternates the endpoint. *)
let edit_hit_stream ~seed =
  let models = Array.map (fun x -> body x) (pool ~seed working_set) in
  fun i ->
    let slot =
      if i < 2 * working_set then i
      else (2 * (Hashtbl.hash (seed, i) mod working_set)) + (i land 1)
    in
    make_request ~id:i (edit_endpoint slot) ~body:models.(slot / 2) ~slot

let codegen_rotation =
  [|
    (Api.Generate `C, []);
    (Api.Generate `Java, []);
    (Api.Generate `Kpn, []);
    (Api.Conform, [ ("rounds", "50"); ("backends", "seq,compiled,kpn") ]);
  |]

let all =
  [
    {
      name = "edit-hit";
      warmup = 2 * working_set;
      inserts = false;
      stream = edit_hit_stream;
    };
    {
      name = "edit-miss";
      warmup = 50;
      inserts = true;
      stream = distinct edit_endpoint;
    };
    {
      name = "simulate-long";
      warmup = 50;
      inserts = true;
      stream = distinct (fun _ -> (Api.Simulate, [ ("rounds", "500") ]));
    };
    {
      name = "codegen-conform";
      warmup = 50;
      inserts = true;
      stream = distinct (fun i -> codegen_rotation.(i mod 4));
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all
