(* Process-global metrics registry: counters, gauges and histograms
   that any pass may register into by name.  Cheap enough to leave on
   unconditionally: recording is a hashtable lookup plus a couple of
   field writes.

   Histograms keep exact count/sum/min/max plus a bounded sample of at
   most [max_samples] values, from which p50/p95/p99 are computed on
   snapshot.  Until a histogram receives a merge, [observe] keeps the
   most recent [max_samples] in a ring; from its first merge on it
   keeps a bottom-k heap (see [merge]).  The array starts empty and
   doubles up to [max_samples] as samples arrive, so a short-lived
   registry pays for the samples it holds, not for 64 KB.

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
  mutable h_vals : float array;
      (* the kept samples, [min h_count max_samples] of them: a ring
         written at [h_count mod max_samples], or a heap *)
  mutable h_keys : int array; (* heap only: [sample_key] of each kept sample *)
  mutable h_heap : bool; (* has received a merge *)
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

(* A merge keeps a bottom-k sample: of every sample offered to a
   merged histogram, the [max_samples] that order first by
   ([sample_key], value).  The key is a 63-bit mix of the sample's bits
   (murmur3's fmix64), unrelated to magnitude, so the kept samples are
   a uniform subsample of everything merged and quantiles stay
   unbiased; and the kept multiset is a function of the multiset
   offered, so merge order cannot change it.  Samples repeated bit for
   bit share a key.  The mixes are written out, and the function
   inlined, so that no float or int64 is boxed. *)
let[@inline] sample_key v =
  let z = Int64.bits_of_float v in
  let z = Int64.logxor z (Int64.shift_right_logical z 33) in
  let z = Int64.mul z 0xff51afd7ed558ccdL in
  let z = Int64.logxor z (Int64.shift_right_logical z 33) in
  let z = Int64.mul z 0xc4ceb9fe1a85ec53L in
  Int64.to_int (Int64.logxor z (Int64.shift_right_logical z 33))

(* The kept samples of a merged histogram form a binary max-heap in
   that order, its last-kept sample on top.  The sift loops compare and
   move slots by index, so no sample crosses a call and none is boxed. *)
let[@inline] after h i j =
  let ki = h.h_keys.(i) and kj = h.h_keys.(j) in
  ki > kj || (ki = kj && Float.compare h.h_vals.(i) h.h_vals.(j) > 0)

let[@inline] swap h i j =
  let v = h.h_vals.(i) and k = h.h_keys.(i) in
  h.h_vals.(i) <- h.h_vals.(j);
  h.h_keys.(i) <- h.h_keys.(j);
  h.h_vals.(j) <- v;
  h.h_keys.(j) <- k

let rec sift_up h i =
  let parent = (i - 1) / 2 in
  if i > 0 && after h i parent then begin
    swap h i parent;
    sift_up h parent
  end

(* Restore the heap below slot [i] of a heap of [n] samples. *)
let rec sift_down h n i =
  let l = (2 * i) + 1 in
  if l < n then begin
    let c = if l + 1 < n && after h (l + 1) l then l + 1 else l in
    if after h c i then begin
      swap h c i;
      sift_down h n c
    end
  end

(* Double the arrays, up to [max_samples] slots. *)
let grow h =
  let cap = Int.min max_samples (Int.max 16 (2 * Array.length h.h_vals)) in
  let widen a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  in
  h.h_vals <- widen h.h_vals 0.0;
  if h.h_heap then h.h_keys <- widen h.h_keys 0

(* Turn a ring into a heap; done once, at a histogram's first merge. *)
let to_heap h =
  let n = Int.min h.h_count max_samples in
  h.h_keys <- Array.init (Array.length h.h_vals) (fun i -> sample_key h.h_vals.(i));
  h.h_heap <- true;
  for i = (n / 2) - 1 downto 0 do
    sift_down h n i
  done

(* Offer [v] to a heap that holds [n] samples: pushed while there is
   room, else it replaces the top if it orders before it, else it is
   dropped after one key. *)
let[@inline] offer h n v =
  let k = sample_key v in
  if n < max_samples then begin
    if n = Array.length h.h_vals then grow h;
    h.h_vals.(n) <- v;
    h.h_keys.(n) <- k;
    sift_up h n
  end
  else if k < h.h_keys.(0) || (k = h.h_keys.(0) && Float.compare v h.h_vals.(0) < 0)
  then begin
    h.h_vals.(0) <- v;
    h.h_keys.(0) <- k;
    sift_down h n 0
  end

let new_histogram () =
  Histogram
    {
      h_count = 0;
      h_sum = 0.0;
      h_min = Float.infinity;
      h_max = Float.neg_infinity;
      h_vals = [||];
      h_keys = [||];
      h_heap = false;
    }

let histogram r name =
  match find_or_add r name new_histogram with
  | Histogram h -> h
  | Counter _ | Gauge _ -> invalid_arg ("metrics: " ^ name ^ " is not a histogram")

(* One sample: the exact summaries, then the kept sample — the ring's
   next slot, or an offer to the heap once the histogram is merged
   into, so that what it keeps does not depend on whether its
   observations came before or after its merges. *)
let[@inline] record h v =
  let seen = h.h_count in
  h.h_count <- seen + 1;
  h.h_sum <- h.h_sum +. v;
  if v < h.h_min then h.h_min <- v;
  if v > h.h_max then h.h_max <- v;
  if h.h_heap then offer h (Int.min seen max_samples) v
  else begin
    let slot = seen mod max_samples in
    if slot = Array.length h.h_vals then grow h;
    h.h_vals.(slot) <- v
  end

let observe ?registry:r name v =
  let r = registry r in
  Mutex.protect r.lock @@ fun () -> record (histogram r name) v

(* [observe] of each sample in turn, under one lock and one lookup: a
   loop that times its iterations into an array records them once. *)
let observe_all ?registry:r name samples =
  if Array.length samples > 0 then begin
    let r = registry r in
    Mutex.protect r.lock @@ fun () ->
    let h = histogram r name in
    for i = 0 to Array.length samples - 1 do
      record h samples.(i)
    done
  end

(* Merge [src] into [into]: counters add, gauges keep the max, and
   histograms combine exact count/sum/min/max while each sample the
   source keeps is offered to the destination's heap.  A merge costs
   the source's samples: a full heap rejects a sample after one key
   and takes one in O(log max_samples).  Every combination rule is
   commutative and associative, so merging per-domain child registries
   back into a parent (Context.merge) is independent of the order the
   children arrive in.  The source is snapshotted under its own lock
   before the destination is locked, so no two registry locks are ever
   held together. *)
let merge ~into src =
  if src != into then begin
    let entries =
      Mutex.protect src.lock (fun () ->
          List.rev_map
            (fun name ->
              match Hashtbl.find src.table name with
              | Counter c -> (name, `C c.c)
              | Gauge g -> (name, `G g.g)
              | Histogram h ->
                  let kept = Array.sub h.h_vals 0 (Int.min h.h_count max_samples) in
                  (name, `H (h.h_count, h.h_sum, h.h_min, h.h_max, kept)))
            src.names)
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
        | `H (count, sum, mn, mx, samples) ->
            let h = histogram into name in
            if not h.h_heap then to_heap h;
            let seen = h.h_count in
            for i = 0 to Array.length samples - 1 do
              offer h (Int.min (seen + i) max_samples) samples.(i)
            done;
            h.h_count <- h.h_count + count;
            h.h_sum <- h.h_sum +. sum;
            if mn < h.h_min then h.h_min <- mn;
            if mx > h.h_max then h.h_max <- mx)
      entries
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
      let sorted = Array.sub h.h_vals 0 (min h.h_count max_samples) in
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
