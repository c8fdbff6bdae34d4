(* Time-bucketed rolling aggregation: the "what is the service doing
   *right now*" counterpart to the process-lifetime {!Metrics} registry.

   A window is a ring of [buckets] buckets, each [bucket_s] seconds
   wide.  Events land in the bucket their timestamp falls in (bucket
   index = floor(now / bucket_s)); reading a window of W seconds sums
   the last ceil(W / bucket_s) buckets that are still *live* — a ring
   slot whose stored index is not the one the query expects belongs to
   a previous lap and is ignored, so expired data can never leak into a
   result, only be overwritten.  One ring serves every window up to
   [bucket_s * buckets] seconds: the default (5 s x 60) answers the
   10 s / 1 m / 5 m windows the serve dashboard wants.

   Two families of series share the ring: counters ([add], answering
   [sum]/[rate]) and value samples ([observe], answering
   [quantiles] via {!Metrics.percentile}).  Samples are bounded per
   bucket per name so a hot endpoint cannot grow a bucket without
   bound; excess samples are dropped and counted in [q_count] (the
   exact event count survives, the quantile just gets a cap on its
   sample base, same trade as the Metrics histogram ring).

   The clock is injectable ([create ?clock]) so rotation and expiry are
   deterministic under test; the default is [Unix.gettimeofday].  All
   state is guarded by one mutex — recording is a hashtable hit plus an
   array write, reading is a fold over at most [buckets] buckets. *)

let max_bucket_samples = 512

type samples = {
  mutable s_count : int; (* all observations, including dropped ones *)
  s_ring : float array;
  mutable s_next : int;
}

type bucket = {
  mutable b_index : int; (* absolute bucket index; -1 = never used *)
  b_counts : (string, int ref) Hashtbl.t;
  b_samples : (string, samples) Hashtbl.t;
}

type t = {
  clock : unit -> float;
  bucket_s : float;
  ring : bucket array;
  lock : Mutex.t;
}

let create ?(clock = Unix.gettimeofday) ?(bucket_s = 5.0) ?(buckets = 60) () =
  if bucket_s <= 0.0 then invalid_arg "window: bucket_s must be > 0";
  if buckets < 1 then invalid_arg "window: buckets must be >= 1";
  {
    clock;
    bucket_s;
    ring =
      Array.init buckets (fun _ ->
          {
            b_index = -1;
            b_counts = Hashtbl.create 8;
            b_samples = Hashtbl.create 8;
          });
    lock = Mutex.create ();
  }

let bucket_s t = t.bucket_s
let buckets t = Array.length t.ring
let max_window_s t = t.bucket_s *. float_of_int (Array.length t.ring)

let index_at t now = int_of_float (Float.floor (now /. t.bucket_s))

(* The live bucket for [now], recycling the ring slot if it still holds
   a previous lap. *)
let live_bucket t now =
  let idx = index_at t now in
  let b = t.ring.(idx mod Array.length t.ring) in
  if b.b_index <> idx then begin
    Hashtbl.reset b.b_counts;
    Hashtbl.reset b.b_samples;
    b.b_index <- idx
  end;
  b

let add ?(by = 1) t name =
  let now = t.clock () in
  Mutex.protect t.lock @@ fun () ->
  let b = live_bucket t now in
  match Hashtbl.find_opt b.b_counts name with
  | Some r -> r := !r + by
  | None -> Hashtbl.replace b.b_counts name (ref by)

let observe t name v =
  let now = t.clock () in
  Mutex.protect t.lock @@ fun () ->
  let b = live_bucket t now in
  let s =
    match Hashtbl.find_opt b.b_samples name with
    | Some s -> s
    | None ->
        let s =
          { s_count = 0; s_ring = Array.make max_bucket_samples 0.0; s_next = 0 }
        in
        Hashtbl.replace b.b_samples name s;
        s
  in
  s.s_count <- s.s_count + 1;
  s.s_ring.(s.s_next mod max_bucket_samples) <- v;
  s.s_next <- s.s_next + 1

(* Fold [f] over the live buckets of the last [window_s] seconds.
   Clamped to the ring capacity: asking for more than
   [max_window_s] answers the whole ring. *)
let fold_window t ~window_s f init =
  let now = t.clock () in
  let span = int_of_float (Float.ceil (window_s /. t.bucket_s)) in
  let span = max 1 (min span (Array.length t.ring)) in
  let head = index_at t now in
  let acc = ref init in
  for o = 0 to span - 1 do
    let idx = head - o in
    if idx >= 0 then begin
      let b = t.ring.(idx mod Array.length t.ring) in
      if b.b_index = idx then acc := f !acc b
    end
  done;
  !acc

let sum t ~window_s name =
  Mutex.protect t.lock @@ fun () ->
  fold_window t ~window_s
    (fun acc b ->
      match Hashtbl.find_opt b.b_counts name with
      | Some r -> acc + !r
      | None -> acc)
    0

let rate t ~window_s name =
  float_of_int (sum t ~window_s name) /. window_s

type quantiles = {
  q_count : int; (* every observation in the window, dropped or kept *)
  q_p50 : float;
  q_p95 : float;
  q_p99 : float;
}

let quantiles t ~window_s name =
  let count, chunks =
    Mutex.protect t.lock @@ fun () ->
    fold_window t ~window_s
      (fun (count, chunks) b ->
        match Hashtbl.find_opt b.b_samples name with
        | Some s ->
            let kept = min s.s_count max_bucket_samples in
            (count + s.s_count, Array.sub s.s_ring 0 kept :: chunks)
        | None -> (count, chunks))
      (0, [])
  in
  let all = Array.concat chunks in
  Array.sort Float.compare all;
  {
    q_count = count;
    q_p50 = Metrics.percentile all 50.0;
    q_p95 = Metrics.percentile all 95.0;
    q_p99 = Metrics.percentile all 99.0;
  }

(* Every series name live anywhere in the window, sorted. *)
let names t ~window_s =
  let collect tbl acc = Hashtbl.fold (fun name _ acc -> name :: acc) tbl acc in
  Mutex.protect t.lock
    (fun () ->
      fold_window t ~window_s
        (fun acc b -> collect b.b_counts (collect b.b_samples acc))
        [])
  |> List.sort_uniq String.compare

let default_windows = [ 10.0; 60.0; 300.0 ]

(* One JSON document for every requested window: per-series counts,
   rates and quantiles — what [/api/windows], the SSE "window" frames
   and `umlfront top` all consume. *)
let to_json ?(windows = default_windows) t =
  let window_json window_s =
    let series =
      List.map
        (fun name ->
          let n = sum t ~window_s name in
          let q = quantiles t ~window_s name in
          ( name,
            Json.Obj
              ([
                 ("count", Json.Int n);
                 ("rate", Json.Float (float_of_int n /. window_s));
               ]
              @
              if q.q_count = 0 then []
              else
                [
                  ("samples", Json.Int q.q_count);
                  ("p50", Json.Float q.q_p50);
                  ("p95", Json.Float q.q_p95);
                  ("p99", Json.Float q.q_p99);
                ]) ))
        (names t ~window_s)
    in
    Json.Obj [ ("window_s", Json.Float window_s); ("series", Json.Obj series) ]
  in
  Json.Obj
    [
      ("bucket_s", Json.Float t.bucket_s);
      ("buckets", Json.Int (Array.length t.ring));
      ("windows", Json.List (List.map window_json windows));
    ]
