(* Compiled flat-schedule SDF execution.

   [Exec.run] is the semantic reference: hashtables keyed on names,
   fresh arrays per firing, list walks per actor.  Here the graph is
   compiled once into dense arrays — an opcode with resolved immediates
   per actor, ring-buffer FIFOs per edge, the topological order as an
   int array — and the steady-state loop touches only those.  The float
   operations per actor are replicated from [Exec.behaviour] operation
   for operation (same fold directions, same defaults), which is what
   makes the outcome bit-identical, a property the conformance engine
   and the qcheck suite enforce rather than assume.

   Buffer sizing (Lee–Messerschmitt): the flattened graph is
   single-rate — every actor fires exactly once per round — so the
   repetition vector is all-ones and the steady-state bound per edge is
   one in-flight token, plus one more on UnitDelay edges for the
   initial token that breaks the cycle (cf. Analysis.Sdf_rules
   .buffer_bounds, which computes the same 1/2 slots).  The sequential
   engine allocates exactly those capacities and exercises the FIFO
   discipline (push/pop with wraparound) every round.  The batched
   parallel engine widens each ring to the batch window (batch slots
   forward, batch+1 on delay edges, rounded to powers of two) so a
   producer may run ahead of a consumer within a batch: slot r mod cap
   holds round r's token, and within any window of batch consecutive
   rounds all live slots are distinct.

   Parallel scheduling: rather than a barrier per dependency level,
   rounds are batched per synchronization point and every
   (actor, round) pair becomes a node of a precedence DAG.  A node's
   in-degree counts its same-round non-delay input edges, plus — for
   rounds after the first of the batch — its delay input edges (the
   producer fired in the previous round) and one self-dependency that
   serializes the actor's own firings (the per-actor scratch buffers
   demand it).  Workers pull ready nodes from per-worker Chase–Lev
   deques ([Umlfront_parallel.Wsdeque]), steal when dry, spin briefly
   and then park on a condition variable; the worker that completes
   the batch broadcasts.  Determinism needs no commit phase for data
   (every token has exactly one writer and one tracked reader); token
   telemetry is replayed in topological order once per batch, exactly
   the stream the sequential engine records inline. *)

module S = Umlfront_simulink.System
module B = Umlfront_simulink.Block
module Pool = Umlfront_parallel.Pool
module Wsdeque = Umlfront_parallel.Wsdeque
module Obs = Umlfront_obs

(* --- token storage --------------------------------------------------- *)

module Fifo = struct
  type t = {
    buf : float array;
    mask : int;
    cap : int; (* logical capacity; buf is the next power of two *)
    mutable head : int; (* next pop; grows without wrapping *)
    mutable tail : int; (* next push *)
  }

  exception Full
  exception Empty

  let create ~capacity =
    if capacity < 1 then invalid_arg "Compiled.Fifo.create: capacity < 1";
    let rec pow2 k = if k >= capacity then k else pow2 (k * 2) in
    let size = pow2 1 in
    { buf = Array.make size 0.0; mask = size - 1; cap = capacity; head = 0; tail = 0 }

  let capacity t = t.cap
  let length t = t.tail - t.head
  let is_empty t = t.tail = t.head
  let is_full t = t.tail - t.head = t.cap

  let push t v =
    if is_full t then raise Full;
    t.buf.(t.tail land t.mask) <- v;
    t.tail <- t.tail + 1

  let pop t =
    if is_empty t then raise Empty;
    let v = t.buf.(t.head land t.mask) in
    t.head <- t.head + 1;
    v

  let set_slot t i v = t.buf.(i land t.mask) <- v
  let get_slot t i = t.buf.(i land t.mask)
end

(* --- compilation ----------------------------------------------------- *)

(* One opcode per actor, parameters resolved to immediates at compile
   time.  Each constructor's kernel replicates the corresponding arm of
   [Exec.behaviour] exactly. *)
type op =
  | Op_const of float (* Constant, Ground *)
  | Op_gain of float
  | Op_sum of float array (* per-input signs *)
  | Op_product
  | Op_saturation of float * float (* hi, lo *)
  | Op_switch of float (* threshold *)
  | Op_abs
  | Op_sqrt
  | Op_unary of (float -> float) (* Trig / Math, function resolved *)
  | Op_minmax of (float -> float -> float)
  | Op_mux
  | Op_demux
  | Op_terminator
  | Op_sfunction of { fn : string; a : float; b : float }
      (* [a], [b]: Exec.sfunction_constants of [fn], for the default
         behaviour *)
  | Op_delay
  | Op_inport
  | Op_outport

type plan = {
  p_sdf : Sdf.t;
  n : int;
  names : string array;
  ops : op array;
  n_prod : int array; (* ports a firing produces *)
  is_delay : bool array;
  delay_init : float array;
  e_sp : int array; (* per edge: source port *)
  e_dp : int array; (* per edge: destination port *)
  e_dst_id : int array;
  e_delay : bool array; (* source actor is a UnitDelay *)
  in_edges : int array array; (* per actor, in Sdf.preds order *)
  out_edges : int array array; (* per actor, in Sdf.succs order *)
  order : int array; (* topological firing order *)
  nd_in : int array; (* non-delay in-edge count *)
  d_in : int array; (* delay in-edge count *)
  trace_of : int array; (* actor id -> graph_outputs index, or -1 *)
  outputs : string array; (* graph_outputs *)
  tele_in : string array array; (* per actor: pred channel names *)
  tele_out : (string * string list * string) array array;
      (* per actor: succ (channel, protocols, dst) *)
}

let op_of (a : Sdf.actor) =
  let blk = a.Sdf.actor_block in
  match blk.S.blk_type with
  | B.Constant -> Op_const (Exec.param_float blk "Value" 0.0)
  | B.Ground -> Op_const 0.0
  | B.Gain -> Op_gain (Exec.param_float blk "Gain" 1.0)
  | B.Product -> Op_product
  | B.Sum -> Op_sum (Array.of_list (Exec.sum_signs blk a.Sdf.actor_inputs))
  | B.Saturation ->
      Op_saturation
        (Exec.param_float blk "UpperLimit" 1.0, Exec.param_float blk "LowerLimit" (-1.0))
  | B.Switch -> Op_switch (Exec.param_float blk "Threshold" 0.0)
  | B.Abs -> Op_abs
  | B.Sqrt -> Op_sqrt
  | B.Trig ->
      Op_unary
        (match S.param_string blk "Function" with
        | Some "cos" -> cos
        | Some "tan" -> tan
        | Some _ | None -> sin)
  | B.Min_max ->
      Op_minmax (if S.param_string blk "Function" = Some "min" then Float.min else Float.max)
  | B.Math ->
      Op_unary
        (match S.param_string blk "Function" with
        | Some "log" -> log
        | Some _ | None -> exp)
  | B.Mux -> Op_mux
  | B.Demux -> Op_demux
  | B.Terminator -> Op_terminator
  | B.S_function ->
      let fn = Option.value (S.param_string blk "FunctionName") ~default:blk.S.blk_name in
      let a, b = Exec.sfunction_constants fn in
      Op_sfunction { fn; a; b }
  | B.Unit_delay -> Op_delay
  | B.Inport -> Op_inport
  | B.Outport -> Op_outport
  | B.Subsystem | B.Channel ->
      invalid_arg (Printf.sprintf "compiled: %s is structural, not an actor" a.Sdf.actor_name)

let produced_of (a : Sdf.actor) = function
  | Op_const _ | Op_gain _ | Op_sum _ | Op_product | Op_saturation _ | Op_switch _
  | Op_abs | Op_sqrt | Op_unary _ | Op_minmax _ | Op_mux | Op_inport -> 1
  | Op_demux | Op_sfunction _ -> a.Sdf.actor_outputs
  | Op_terminator | Op_outport | Op_delay -> 0

let compile (sdf : Sdf.t) =
  let order_names = Exec.firing_order sdf (* raises Deadlock like the reference *) in
  let actors = Array.of_list sdf.Sdf.actors in
  let n = Array.length actors in
  let ids = Hashtbl.create (2 * n) in
  Array.iteri (fun i (a : Sdf.actor) -> Hashtbl.replace ids a.Sdf.actor_name i) actors;
  let id_of name =
    match Hashtbl.find_opt ids name with
    | Some i -> i
    | None -> invalid_arg (Printf.sprintf "compiled: unknown actor %s" name)
  in
  let ops = Array.map op_of actors in
  let is_delay = Array.map (fun o -> o = Op_delay) ops in
  let edges = Array.of_list sdf.Sdf.edges in
  let e_sp = Array.map (fun (e : Sdf.edge) -> e.Sdf.edge_src_port) edges in
  let e_dp = Array.map (fun (e : Sdf.edge) -> e.Sdf.edge_dst_port) edges in
  let e_dst_id = Array.map (fun (e : Sdf.edge) -> id_of e.Sdf.edge_dst) edges in
  let e_delay = Array.map (fun (e : Sdf.edge) -> is_delay.(id_of e.Sdf.edge_src)) edges in
  (* Positional scan over [sdf.edges] keeps each per-actor edge list in
     exactly Sdf.preds/succs order (they are order-preserving filters),
     duplicates included. *)
  let in_buf = Array.make n [] and out_buf = Array.make n [] in
  Array.iteri
    (fun j (e : Sdf.edge) ->
      in_buf.(id_of e.Sdf.edge_dst) <- j :: in_buf.(id_of e.Sdf.edge_dst);
      out_buf.(id_of e.Sdf.edge_src) <- j :: out_buf.(id_of e.Sdf.edge_src))
    edges;
  let in_edges = Array.map (fun l -> Array.of_list (List.rev l)) in_buf in
  let out_edges = Array.map (fun l -> Array.of_list (List.rev l)) out_buf in
  let nd_in = Array.make n 0 and d_in = Array.make n 0 in
  Array.iter
    (fun ie ->
      ignore
        (Array.iter
           (fun j ->
             if e_delay.(j) then d_in.(e_dst_id.(j)) <- d_in.(e_dst_id.(j)) + 1
             else nd_in.(e_dst_id.(j)) <- nd_in.(e_dst_id.(j)) + 1)
           ie))
    in_edges;
  let outputs = Array.of_list sdf.Sdf.graph_outputs in
  let trace_of = Array.make n (-1) in
  Array.iteri (fun k name -> trace_of.(id_of name) <- k) outputs;
  {
    p_sdf = sdf;
    n;
    names = Array.map (fun (a : Sdf.actor) -> a.Sdf.actor_name) actors;
    ops;
    n_prod = Array.mapi (fun i o -> produced_of actors.(i) o) ops;
    is_delay;
    delay_init =
      Array.map
        (fun (a : Sdf.actor) -> Exec.param_float a.Sdf.actor_block "InitialCondition" 0.0)
        actors;
    e_sp;
    e_dp;
    e_dst_id;
    e_delay;
    in_edges;
    out_edges;
    order = Array.of_list (List.map id_of order_names);
    nd_in;
    d_in;
    trace_of;
    outputs;
    tele_in =
      Array.map
        (fun (a : Sdf.actor) ->
          Array.of_list (List.map Sdf.channel_name (Sdf.preds sdf a.Sdf.actor_name)))
        actors;
    tele_out =
      Array.map
        (fun (a : Sdf.actor) ->
          Array.of_list
            (List.map
               (fun (e : Sdf.edge) ->
                 (Sdf.channel_name e, Sdf.edge_protocols e, e.Sdf.edge_dst))
               (Sdf.succs sdf a.Sdf.actor_name)))
        actors;
  }

(* --- execution ------------------------------------------------------- *)

(* Kernel for the fixed-arity combinational ops: writes [outs] from
   [ins] exactly as the matching [Exec.behaviour] arm would (same fold
   seeds, same fold direction, same out-of-range exceptions). *)
let compute_fixed op (ins : float array) (outs : float array) n_prod =
  match op with
  | Op_const v -> outs.(0) <- v
  | Op_gain g -> outs.(0) <- g *. ins.(0)
  | Op_sum signs ->
      let acc = ref 0.0 in
      for k = 0 to Array.length signs - 1 do
        acc := !acc +. (signs.(k) *. ins.(k))
      done;
      outs.(0) <- !acc
  | Op_product ->
      let acc = ref 1.0 in
      for k = 0 to Array.length ins - 1 do
        acc := !acc *. ins.(k)
      done;
      outs.(0) <- !acc
  | Op_saturation (hi, lo) -> outs.(0) <- Float.min hi (Float.max lo ins.(0))
  | Op_switch threshold -> outs.(0) <- (if ins.(1) >= threshold then ins.(0) else ins.(2))
  | Op_abs -> outs.(0) <- Float.abs ins.(0)
  | Op_sqrt -> outs.(0) <- sqrt ins.(0)
  | Op_unary f -> outs.(0) <- f ins.(0)
  | Op_minmax pick ->
      outs.(0) <-
        (if Array.length ins = 0 then 0.0
         else begin
           let acc = ref ins.(0) in
           for k = 1 to Array.length ins - 1 do
             acc := pick !acc ins.(k)
           done;
           !acc
         end)
  | Op_mux -> outs.(0) <- (if Array.length ins > 0 then ins.(0) else 0.0)
  | Op_demux ->
      let v = if Array.length ins > 0 then ins.(0) else 0.0 in
      Array.fill outs 0 n_prod v
  | Op_terminator -> ()
  | Op_sfunction { a; b; _ } -> Exec.default_sfunction_into ~a ~b ins outs n_prod
  | Op_delay | Op_inport | Op_outport -> assert false

let run_plan ?stimulus ?pool ?(batch = 32) ~rounds p =
  if batch < 1 then invalid_arg "Compiled.run: batch < 1";
  let par = match pool with Some pl when Pool.size pl > 1 -> Some pl | _ -> None in
  let domains = match par with Some pl -> Pool.size pl | None -> 1 in
  Obs.Trace.with_span ~cat:"exec" "compiled.run"
    ~args:(fun () ->
      [
        ("rounds", Obs.Json.Int rounds);
        ("actors", Obs.Json.Int p.n);
        ("domains", Obs.Json.Int domains);
      ])
  @@ fun () ->
  Obs.Journal.record "compiled.run"
    ~fields:
      [
        ("rounds", Obs.Json.Int rounds);
        ("actors", Obs.Json.Int p.n);
        ("edges", Obs.Json.Int (Array.length p.e_sp));
        ("domains", Obs.Json.Int domains);
        ("batch", Obs.Json.Int (if par = None then 1 else batch));
      ];
  let stimulus = Option.value stimulus ~default:Exec.default_stimulus in
  let rec pow2 k n = if k >= n then k else pow2 (k * 2) n in
  (* Sequential: the exact Lee–Messerschmitt capacities.  Parallel:
     widened to the batch window so in-flight rounds never share a
     slot (delay edges hold one extra, initial, token). *)
  let fwd_cap, delay_cap =
    match par with None -> (1, 2) | Some _ -> (pow2 1 batch, pow2 1 (batch + 1))
  in
  let rings =
    Array.map (fun d -> Fifo.create ~capacity:(if d then delay_cap else fwd_cap)) p.e_delay
  in
  (* Initial tokens: one per UnitDelay out-edge, readable in round 0. *)
  for i = 0 to p.n - 1 do
    if p.is_delay.(i) then
      Array.iter
        (fun e ->
          match par with
          | None -> Fifo.push rings.(e) p.delay_init.(i)
          | Some _ -> Fifo.set_slot rings.(e) 0 p.delay_init.(i))
        p.out_edges.(i)
  done;
  let ins_scratch =
    Array.init p.n (fun i ->
        Array.make
          (match Sdf.find_actor p.p_sdf p.names.(i) with
          | Some a -> a.Sdf.actor_inputs
          | None -> 0)
          0.0)
  in
  let outs_scratch = Array.init p.n (fun i -> Array.make (max p.n_prod.(i) 1) 0.0) in
  let trace_arrays = Array.map (fun _ -> Array.make rounds 0.0) p.outputs in
  let tracing = Obs.Telemetry.enabled () in
  let observing = Obs.Trace.enabled () in
  (* Deterministic token telemetry for one firing, identical to
     Exec.record_tokens: consume the pred channels, produce one stamped
     token per succ edge; the firing index equals round + 1 because the
     graph is single-rate. *)
  let replay_tokens i round =
    let name = p.names.(i) in
    let firing = round + 1 in
    let ti = p.tele_in.(i) in
    for k = 0 to Array.length ti - 1 do
      ignore (Obs.Telemetry.consume ~by:name ti.(k))
    done;
    let tl = p.tele_out.(i) in
    for k = 0 to Array.length tl - 1 do
      let chan, protocols, dst = tl.(k) in
      ignore (Obs.Telemetry.produce ~protocols ~round ~dst ~src:name ~firing chan)
    done
  in
  (* ---- sequential flat interpreter: FIFO push/pop discipline ----
     Pops and pushes are written out on the rings' fields: a float
     passed to or returned from a call that is not inlined is boxed,
     and moving a token must not allocate. *)
  let gather_seq i =
    let ins = ins_scratch.(i) in
    let ie = p.in_edges.(i) in
    for k = 0 to Array.length ie - 1 do
      let e = ie.(k) in
      let r = rings.(e) in
      if r.Fifo.tail = r.Fifo.head then raise Fifo.Empty;
      let dp = p.e_dp.(e) in
      if dp >= 1 && dp <= Array.length ins then
        ins.(dp - 1) <- r.Fifo.buf.(r.Fifo.head land r.Fifo.mask);
      r.Fifo.head <- r.Fifo.head + 1
    done;
    ins
  in
  let scatter_seq i produced (arr : float array) =
    let oe = p.out_edges.(i) in
    for k = 0 to Array.length oe - 1 do
      let e = oe.(k) in
      let r = rings.(e) in
      if r.Fifo.tail - r.Fifo.head = r.Fifo.cap then raise Fifo.Full;
      let sp = p.e_sp.(e) in
      r.Fifo.buf.(r.Fifo.tail land r.Fifo.mask) <-
        (if sp >= 1 && sp <= produced then arr.(sp - 1) else 0.0);
      r.Fifo.tail <- r.Fifo.tail + 1
    done
  in
  let fire_seq i round =
    let ins = gather_seq i in
    (match p.ops.(i) with
    | Op_delay ->
        (* The ring still holds this round's (older) token; pushing the
           new state behind it is the snapshot semantics. *)
        let v = if Array.length ins > 0 then ins.(0) else 0.0 in
        let oe = p.out_edges.(i) in
        for k = 0 to Array.length oe - 1 do
          let r = rings.(oe.(k)) in
          if r.Fifo.tail - r.Fifo.head = r.Fifo.cap then raise Fifo.Full;
          r.Fifo.buf.(r.Fifo.tail land r.Fifo.mask) <- v;
          r.Fifo.tail <- r.Fifo.tail + 1
        done
    | Op_inport ->
        let outs = outs_scratch.(i) in
        outs.(0) <- stimulus p.names.(i) round;
        scatter_seq i 1 outs
    | Op_outport ->
        let v = if Array.length ins > 0 then ins.(0) else 0.0 in
        let t = p.trace_of.(i) in
        if t >= 0 then trace_arrays.(t).(round) <- v;
        scatter_seq i 0 ins
    | op ->
        let outs = outs_scratch.(i) in
        compute_fixed op ins outs p.n_prod.(i);
        scatter_seq i p.n_prod.(i) outs);
    if tracing then replay_tokens i round
  in
  (* With spans on, each round's time goes into [round_us], one clock
     read per round (a round ends where the next starts), and the run
     records them all at once. *)
  let run_sequential () =
    let round_us = Array.make (if observing then rounds else 0) 0.0 in
    let last = ref (if observing then Obs.Trace.now_us () else 0.0) in
    for round = 0 to rounds - 1 do
      let ord = p.order in
      for k = 0 to Array.length ord - 1 do
        fire_seq ord.(k) round
      done;
      if observing then begin
        let now = Obs.Trace.now_us () in
        round_us.(round) <- now -. !last;
        last := now
      end
    done;
    Obs.Metrics.observe_all "compiled.round_us" round_us
  in
  (* ---- batched work-stealing parallel engine ---- *)
  let fire_par i gr =
    (* [gr] is the global round; ring slots are indexed by it. *)
    let ins = ins_scratch.(i) in
    let ie = p.in_edges.(i) in
    for k = 0 to Array.length ie - 1 do
      let e = ie.(k) in
      let v = Fifo.get_slot rings.(e) gr in
      let dp = p.e_dp.(e) in
      if dp >= 1 && dp <= Array.length ins then ins.(dp - 1) <- v
    done;
    let scatter produced (arr : float array) =
      let oe = p.out_edges.(i) in
      for k = 0 to Array.length oe - 1 do
        let e = oe.(k) in
        let sp = p.e_sp.(e) in
        Fifo.set_slot rings.(e) gr (if sp >= 1 && sp <= produced then arr.(sp - 1) else 0.0)
      done
    in
    match p.ops.(i) with
    | Op_delay ->
        let v = if Array.length ins > 0 then ins.(0) else 0.0 in
        let oe = p.out_edges.(i) in
        for k = 0 to Array.length oe - 1 do
          Fifo.set_slot rings.(oe.(k)) (gr + 1) v
        done
    | Op_inport ->
        let outs = outs_scratch.(i) in
        outs.(0) <- stimulus p.names.(i) gr;
        scatter 1 outs
    | Op_outport ->
        let v = if Array.length ins > 0 then ins.(0) else 0.0 in
        let t = p.trace_of.(i) in
        if t >= 0 then trace_arrays.(t).(gr) <- v;
        scatter 0 ins
    | op ->
        let outs = outs_scratch.(i) in
        compute_fixed op ins outs p.n_prod.(i);
        scatter p.n_prod.(i) outs
  in
  let run_parallel pl =
    let w = Pool.size pl in
    let bsz = batch in
    let node_count = max 1 (p.n * bsz) in
    let deques = Array.init w (fun _ -> Wsdeque.create ~capacity:node_count) in
    let pending = Array.init (p.n * bsz) (fun _ -> Atomic.make 0) in
    let remaining = Atomic.make 0 in
    let sleepers = Atomic.make 0 in
    let idle_m = Mutex.create () in
    let idle_c = Condition.create () in
    let wake_all () =
      Mutex.lock idle_m;
      Condition.broadcast idle_c;
      Mutex.unlock idle_m
    in
    let exec_node wid base r_count node =
      let i = node / bsz and r = node mod bsz in
      fire_par i (base + r);
      let dq = deques.(wid) in
      let dec target =
        if Atomic.fetch_and_add pending.(target) (-1) = 1 then begin
          Wsdeque.push dq target;
          if Atomic.get sleepers > 0 then wake_all ()
        end
      in
      let oe = p.out_edges.(i) in
      if p.is_delay.(i) then begin
        (* a delay's token is read one round later *)
        if r + 1 < r_count then
          for k = 0 to Array.length oe - 1 do
            dec ((p.e_dst_id.(oe.(k)) * bsz) + r + 1)
          done
      end
      else
        for k = 0 to Array.length oe - 1 do
          dec ((p.e_dst_id.(oe.(k)) * bsz) + r)
        done;
      if r + 1 < r_count then dec (node + 1);
      if Atomic.fetch_and_add remaining (-1) = 1 then wake_all ()
    in
    let worker base r_count wid =
      let q = deques.(wid) in
      let steal_once () =
        let rec go k =
          if k >= w then None
          else
            match Wsdeque.steal deques.((wid + k) mod w) with
            | Some _ as r -> r
            | None -> go (k + 1)
        in
        go 1
      in
      let rec loop spin =
        if Atomic.get remaining > 0 then
          match Wsdeque.pop q with
          | Some node ->
              exec_node wid base r_count node;
              loop 0
          | None -> (
              match steal_once () with
              | Some node ->
                  exec_node wid base r_count node;
                  loop 0
              | None ->
                  if spin < 100 then begin
                    Domain.cpu_relax ();
                    loop (spin + 1)
                  end
                  else begin
                    (* Park until more work is published or the batch
                       drains; the remaining-check under the lock makes
                       the final broadcast impossible to miss. *)
                    Mutex.lock idle_m;
                    Atomic.incr sleepers;
                    if Atomic.get remaining > 0 then Condition.wait idle_c idle_m;
                    Atomic.decr sleepers;
                    Mutex.unlock idle_m;
                    loop 0
                  end)
      in
      loop 0
    in
    let nbatches = (rounds + bsz - 1) / bsz in
    for b = 0 to nbatches - 1 do
      let base = b * bsz in
      let r_count = min bsz (rounds - base) in
      Array.iter Wsdeque.reset deques;
      for i = 0 to p.n - 1 do
        let indeg_rest = p.nd_in.(i) + p.d_in.(i) + 1 in
        for r = 0 to r_count - 1 do
          Atomic.set pending.((i * bsz) + r) (if r = 0 then p.nd_in.(i) else indeg_rest)
        done
      done;
      Atomic.set remaining (p.n * r_count);
      let seed = ref 0 in
      for i = 0 to p.n - 1 do
        if p.nd_in.(i) = 0 then begin
          Wsdeque.push deques.(!seed mod w) (i * bsz);
          incr seed
        end
      done;
      let t0 = if observing then Obs.Trace.now_us () else 0.0 in
      Pool.parallel_for pl w (worker base r_count);
      if observing then begin
        Obs.Metrics.observe "compiled.batch_us" (Obs.Trace.now_us () -. t0);
        Obs.Metrics.incr "compiled.batches"
      end;
      if tracing then
        for r = base to base + r_count - 1 do
          let ord = p.order in
          for k = 0 to Array.length ord - 1 do
            replay_tokens ord.(k) r
          done
        done
    done
  in
  (match par with None -> run_sequential () | Some pl -> run_parallel pl);
  let firings = List.map (fun name -> (name, rounds)) (Array.to_list p.names) in
  Obs.Metrics.incr "compiled.rounds" ~by:rounds;
  Obs.Metrics.incr "compiled.firings" ~by:(p.n * rounds);
  Exec.channel_metrics p.p_sdf rounds;
  Obs.Journal.record "compiled.done"
    ~fields:
      [
        ("rounds", Obs.Json.Int rounds);
        ("firings", Obs.Json.Int (p.n * rounds));
        ("parallel", Obs.Json.Bool (par <> None));
      ];
  Exec.journal_channel_hwms ();
  {
    Exec.rounds;
    traces =
      List.map2
        (fun name arr -> (name, arr))
        (Array.to_list p.outputs) (Array.to_list trace_arrays);
    firings;
  }

let run ?stimulus ?pool ?batch ~rounds sdf =
  run_plan ?stimulus ?pool ?batch ~rounds (compile sdf)
