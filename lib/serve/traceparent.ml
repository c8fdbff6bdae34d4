(* W3C Trace Context `traceparent` header (version 00):

       00-<32 hex trace-id>-<16 hex parent-id>-<2 hex flags>

   The server honors an inbound header (the request joins the caller's
   trace) and otherwise mints a fresh root; either way the response
   echoes a header whose parent-id is the server's own span for the
   request, so a polyglot caller can stitch the hop into its tree.
   Parsing follows the spec's strictness: exact lengths, lowercase hex,
   all-zero trace-id or parent-id rejected, version ff rejected
   (versions other than 00 are accepted and read as 00, as the spec
   demands of forward-compatible implementations). *)

type t = {
  trace_id : string; (* 32 lowercase hex chars, not all zero *)
  parent_id : string; (* 16 lowercase hex chars, not all zero *)
  flags : int; (* 0..255; bit 0 = sampled *)
}

let sampled t = t.flags land 1 = 1

let is_hex s =
  String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) s

let all_zero s = String.for_all (( = ) '0') s

let parse s =
  match String.split_on_char '-' s with
  | [ version; trace_id; parent_id; flags ]
    when String.length version = 2
         && String.length trace_id = 32
         && String.length parent_id = 16
         && String.length flags = 2
         && is_hex version && is_hex trace_id && is_hex parent_id
         && is_hex flags
         && version <> "ff"
         && (not (all_zero trace_id))
         && not (all_zero parent_id) ->
      Some
        { trace_id; parent_id; flags = int_of_string ("0x" ^ flags) }
  | _ -> None

let to_string t = Printf.sprintf "00-%s-%s-%02x" t.trace_id t.parent_id t.flags

(* Process-local randomness for minted ids; seeded once per process.
   The lock makes id generation safe from worker domains. *)
let rng =
  lazy
    (Random.State.make
       [|
         int_of_float (Unix.gettimeofday () *. 1e6) land 0x3FFFFFFF;
         Unix.getpid ();
       |])

let rng_lock = Mutex.create ()

let hex_digits = "0123456789abcdef"

let random_hex n =
  Mutex.lock rng_lock;
  let st = Lazy.force rng in
  let s = String.init n (fun _ -> hex_digits.[Random.State.int st 16]) in
  Mutex.unlock rng_lock;
  s

let rec nonzero_hex n =
  let s = random_hex n in
  if all_zero s then nonzero_hex n else s

(* A fresh root, sampled. *)
let generate () = { trace_id = nonzero_hex 32; parent_id = nonzero_hex 16; flags = 1 }

(* The outbound header for a request that arrived inside [parent]'s
   trace: same trace-id and flags, this hop's own parent-id. *)
let child parent = { parent with parent_id = nonzero_hex 16 }
