(* Process-global metrics registry: counters, gauges and histograms
   that any pass may register into by name.  Cheap enough to leave on
   unconditionally: recording is a hashtable lookup plus a couple of
   field writes.

   Histograms keep exact count/sum/min/max plus a bounded sample buffer
   (ring of the most recent [max_samples]) from which p50/p95/p99 are
   computed on snapshot.

   Every registry carries its own mutex: recordings arrive from worker
   domains (Umlfront_parallel pools running instrumented passes), so
   registration and mutation are serialized.  The uncontended lock cost
   is a few nanoseconds, well under the hashtable lookup it guards. *)

let max_samples = 8192

type histogram = {
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
  h_ring : float array;
  mutable h_next : int; (* next write slot in the ring *)
}

type metric =
  | Counter of { mutable c : int }
  | Gauge of { mutable g : float }
  | Histogram of histogram

type t = {
  table : (string, metric) Hashtbl.t;
  mutable names : string list; (* registration order, newest first *)
  lock : Mutex.t;
}

let create () = { table = Hashtbl.create 64; names = []; lock = Mutex.create () }

(* The process-global registry that instrumented passes record into
   unless a Context has installed a different current registry on this
   domain (see context.ml). *)
let global = create ()

let current_key = Domain.DLS.new_key (fun () -> global)

let current () = Domain.DLS.get current_key

let set_current r = Domain.DLS.set current_key r

let registry = function Some r -> r | None -> current ()

let reset ?registry:r () =
  let r = registry r in
  Mutex.protect r.lock @@ fun () ->
  Hashtbl.reset r.table;
  r.names <- []

let find_or_add r name make =
  match Hashtbl.find_opt r.table name with
  | Some m -> m
  | None ->
      let m = make () in
      Hashtbl.replace r.table name m;
      r.names <- name :: r.names;
      m

let incr ?registry:r ?(by = 1) name =
  let r = registry r in
  Mutex.protect r.lock @@ fun () ->
  match find_or_add r name (fun () -> Counter { c = 0 }) with
  | Counter c -> c.c <- c.c + by
  | Gauge _ | Histogram _ -> invalid_arg ("metrics: " ^ name ^ " is not a counter")

let set_gauge ?registry:r name v =
  let r = registry r in
  Mutex.protect r.lock @@ fun () ->
  match find_or_add r name (fun () -> Gauge { g = 0.0 }) with
  | Gauge g -> g.g <- v
  | Counter _ | Histogram _ -> invalid_arg ("metrics: " ^ name ^ " is not a gauge")

let observe ?registry:r name v =
  let make () =
    Histogram
      {
        h_count = 0;
        h_sum = 0.0;
        h_min = Float.infinity;
        h_max = Float.neg_infinity;
        h_ring = Array.make max_samples 0.0;
        h_next = 0;
      }
  in
  let r = registry r in
  Mutex.protect r.lock @@ fun () ->
  match find_or_add r name make with
  | Histogram h ->
      h.h_count <- h.h_count + 1;
      h.h_sum <- h.h_sum +. v;
      if v < h.h_min then h.h_min <- v;
      if v > h.h_max then h.h_max <- v;
      h.h_ring.(h.h_next mod max_samples) <- v;
      h.h_next <- h.h_next + 1
  | Counter _ | Gauge _ -> invalid_arg ("metrics: " ^ name ^ " is not a histogram")

(* A merge that overflows the ring keeps a bottom-k sample: the
   [max_samples] samples with the smallest [sample_key], a 63-bit mix
   of the sample's bits (murmur3's fmix64) with the value as tie-break.
   The key is unrelated to magnitude, so the kept samples are a uniform
   subsample of everything merged and quantiles stay unbiased; and the
   kept set is a function of the multiset of samples alone, so merge
   order cannot change it.  Samples repeated bit for bit share a key
   and are kept or dropped together. *)
let sample_key v =
  let mix z = Int64.logxor z (Int64.shift_right_logical z 33) in
  let z = mix (Int64.bits_of_float v) in
  let z = mix (Int64.mul z 0xff51afd7ed558ccdL) in
  Int64.to_int (mix (Int64.mul z 0xc4ceb9fe1a85ec53L))

let by_key a b =
  match Int.compare (sample_key a) (sample_key b) with
  | 0 -> Float.compare a b
  | c -> c

let key_sorted arr =
  let rec from i =
    i >= Array.length arr || (by_key arr.(i - 1) arr.(i) <= 0 && from (i + 1))
  in
  from 1

(* The first [max_samples] of [a] and [b] in key order; sorts both in
   place.  Merged rings are stored in key order, so in the common case
   — a long-lived parent absorbing one small child — only the child is
   sorted and the rest is a linear merge; a ring filled by [observe] is
   sorted once. *)
let bottom_k a b =
  List.iter (fun arr -> if not (key_sorted arr) then Array.stable_sort by_key arr) [ a; b ];
  let na = Array.length a and nb = Array.length b in
  let i = ref 0 and j = ref 0 in
  Array.init (min (na + nb) max_samples) (fun _ ->
      if !j >= nb || (!i < na && by_key a.(!i) b.(!j) <= 0) then (
        i := !i + 1;
        a.(!i - 1))
      else (
        j := !j + 1;
        b.(!j - 1)))

(* Merge [src] into [into]: counters add, gauges keep the max, and
   histograms combine exact count/sum/min/max while their sample rings
   are combined by [bottom_k].  Every combination rule is commutative
   and associative, so merging per-domain child registries back into a
   parent (Context.merge) is independent of the order the children
   arrive in.  The source is snapshotted under its own lock before the
   destination is locked, so no two registry locks are ever held
   together. *)
let merge ~into src =
  if src != into then begin
    let entries =
      Mutex.protect src.lock (fun () ->
          List.rev_map
            (fun name -> (name, Hashtbl.find src.table name))
            src.names)
    in
    let copied =
      List.map
        (fun (name, m) ->
          match m with
          | Counter c -> (name, `C c.c)
          | Gauge g -> (name, `G g.g)
          | Histogram h ->
              let kept = min h.h_count max_samples in
              ( name,
                `H (h.h_count, h.h_sum, h.h_min, h.h_max, Array.sub h.h_ring 0 kept) ))
        entries
    in
    Mutex.protect into.lock @@ fun () ->
    List.iter
      (fun (name, payload) ->
        match payload with
        | `C n -> (
            match find_or_add into name (fun () -> Counter { c = 0 }) with
            | Counter c -> c.c <- c.c + n
            | Gauge _ | Histogram _ ->
                invalid_arg ("metrics: " ^ name ^ " is not a counter"))
        | `G v -> (
            match find_or_add into name (fun () -> Gauge { g = v }) with
            | Gauge g -> if v > g.g then g.g <- v
            | Counter _ | Histogram _ ->
                invalid_arg ("metrics: " ^ name ^ " is not a gauge"))
        | `H (count, sum, mn, mx, samples) -> (
            let make () =
              Histogram
                {
                  h_count = 0;
                  h_sum = 0.0;
                  h_min = Float.infinity;
                  h_max = Float.neg_infinity;
                  h_ring = Array.make max_samples 0.0;
                  h_next = 0;
                }
            in
            match find_or_add into name make with
            | Histogram h ->
                let kept = min h.h_count max_samples in
                let combined = bottom_k (Array.sub h.h_ring 0 kept) samples in
                let stored = Array.length combined in
                Array.blit combined 0 h.h_ring 0 stored;
                h.h_next <- stored;
                h.h_count <- h.h_count + count;
                h.h_sum <- h.h_sum +. sum;
                if mn < h.h_min then h.h_min <- mn;
                if mx > h.h_max then h.h_max <- mx
            | Counter _ | Gauge _ ->
                invalid_arg ("metrics: " ^ name ^ " is not a histogram")))
      copied
  end

(* Percentile with linear interpolation between closest ranks, over a
   sorted array.  Exposed for the test suite.  [p] is clamped to
   [0, 100]: an out-of-range request used to index outside the array,
   and with 0 or 1 samples the closest-rank formula degenerates — 0
   samples answer NaN, 1 sample answers that sample for every p. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then Float.nan
  else if n = 1 then sorted.(0)
  else
    let p = if Float.is_nan p then 50.0 else Float.max 0.0 (Float.min 100.0 p) in
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = min (lo + 1) (n - 1) in
    let frac = rank -. float_of_int lo in
    sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))

type stat = {
  s_name : string;
  s_kind : string; (* "counter" | "gauge" | "histogram" *)
  s_count : int;
  s_value : float; (* counter value / gauge value / histogram mean *)
  s_min : float;
  s_max : float;
  s_p50 : float;
  s_p95 : float;
  s_p99 : float;
}

let stat_of r name =
  match Hashtbl.find_opt r.table name with
  | None -> None
  | Some (Counter c) ->
      Some
        {
          s_name = name;
          s_kind = "counter";
          s_count = c.c;
          s_value = float_of_int c.c;
          s_min = Float.nan;
          s_max = Float.nan;
          s_p50 = Float.nan;
          s_p95 = Float.nan;
          s_p99 = Float.nan;
        }
  | Some (Gauge g) ->
      Some
        {
          s_name = name;
          s_kind = "gauge";
          s_count = 1;
          s_value = g.g;
          s_min = Float.nan;
          s_max = Float.nan;
          s_p50 = Float.nan;
          s_p95 = Float.nan;
          s_p99 = Float.nan;
        }
  | Some (Histogram h) ->
      let kept = min h.h_count max_samples in
      let sorted = Array.sub h.h_ring 0 kept in
      Array.sort Float.compare sorted;
      Some
        {
          s_name = name;
          s_kind = "histogram";
          s_count = h.h_count;
          s_value = (if h.h_count = 0 then Float.nan else h.h_sum /. float_of_int h.h_count);
          s_min = h.h_min;
          s_max = h.h_max;
          s_p50 = percentile sorted 50.0;
          s_p95 = percentile sorted 95.0;
          s_p99 = percentile sorted 99.0;
        }

let snapshot ?registry:r () =
  let r = registry r in
  Mutex.protect r.lock @@ fun () ->
  List.filter_map (stat_of r) (List.sort String.compare r.names)

let stat_json (s : stat) =
  let base = [ ("name", Json.String s.s_name); ("kind", Json.String s.s_kind) ] in
  let rest =
    match s.s_kind with
    | "counter" -> [ ("value", Json.Int s.s_count) ]
    | "gauge" -> [ ("value", Json.Float s.s_value) ]
    | _ ->
        [
          ("count", Json.Int s.s_count);
          ("mean", Json.Float s.s_value);
          ("min", Json.Float s.s_min);
          ("max", Json.Float s.s_max);
          ("p50", Json.Float s.s_p50);
          ("p95", Json.Float s.s_p95);
          ("p99", Json.Float s.s_p99);
        ]
  in
  Json.Obj (base @ rest)

let to_json stats = Json.List (List.map stat_json stats)

let table stats =
  let buf = Buffer.create 512 in
  let out fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  out "  %-36s %-10s %10s %12s %12s %12s %12s\n" "metric" "kind" "count" "value/mean"
    "p50" "p95" "p99";
  let cell v = if Float.is_nan v then "-" else Printf.sprintf "%.2f" v in
  List.iter
    (fun s ->
      out "  %-36s %-10s %10d %12s %12s %12s %12s\n" s.s_name s.s_kind s.s_count
        (cell s.s_value) (cell s.s_p50) (cell s.s_p95) (cell s.s_p99))
    stats;
  Buffer.contents buf
