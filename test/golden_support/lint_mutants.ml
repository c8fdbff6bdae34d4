(* Seeded-defect ("mutation") helpers shared by the alcotest suite and
   the golden-report generator: each injects exactly one defect into a
   clean crane model so one lint rule fires.  Lives in its own little
   library because dune modules belong to a single stanza, and both the
   test runner and golden_gen.exe need these. *)

module U = Umlfront_uml
module A = Umlfront_analysis
module D = Umlfront_analysis.Diagnostic
module Core = Umlfront_core
module S = Umlfront_simulink.System
module B = Umlfront_simulink.Block
module Caam = Umlfront_simulink.Caam
module Model = Umlfront_simulink.Model
module CS = Umlfront_casestudies
module Obs = Umlfront_obs

let crane () = CS.Crane_system.model ()
let crane_caam () = (Core.Flow.run (crane ())).Core.Flow.caam

(* --- UML-level mutation helpers ------------------------------------ *)

let add_messages uml msgs =
  {
    uml with
    U.Model.sequences = uml.U.Model.sequences @ [ U.Sequence.make "mutant_sd" msgs ];
  }

(* Declare the operation on the callee class so an injected message
   only trips the rule under test, not UF001 as well. *)
let declare_op uml cls_name op =
  {
    uml with
    U.Model.classes =
      List.map
        (fun (c : U.Classifier.cls) ->
          if String.equal c.U.Classifier.cls_name cls_name then
            { c with U.Classifier.cls_operations = c.U.Classifier.cls_operations @ [ op ] }
          else c)
        uml.U.Model.classes;
  }

let map_deployments uml f =
  { uml with U.Model.deployments = List.map f uml.U.Model.deployments }

let farg = U.Sequence.arg "v" U.Datatype.D_float

let op_with_input name =
  U.Operation.make ~params:[ U.Operation.param "v" U.Datatype.D_float ] name

let op_with_return name =
  U.Operation.make
    ~params:[ U.Operation.param ~dir:U.Operation.Return "r" U.Datatype.D_float ]
    name

(* One mutant per UML rule. *)
let mut_undeclared_operation uml =
  add_messages uml [ U.Sequence.message ~from:"Tsensor" ~target:"sensorProc" "bogus" ]

let mut_unknown_callee uml =
  add_messages uml [ U.Sequence.message ~from:"Tsensor" ~target:"ghostObj" "poke" ]

let mut_unconsumed_set uml =
  let uml = declare_op uml "Tactuator_cls" (op_with_input "SetOrphan") in
  add_messages uml
    [
      U.Sequence.message ~from:"Tcontrol" ~target:"Tactuator" "SetOrphan"
        ~args:[ U.Sequence.arg "orphan" U.Datatype.D_float ];
    ]

let mut_unproduced_get uml =
  let uml = declare_op uml "Tsensor_cls" (op_with_return "GetGhost") in
  add_messages uml
    [
      U.Sequence.message ~from:"Tactuator" ~target:"Tsensor" "GetGhost"
        ~result:(U.Sequence.arg "ghost" U.Datatype.D_float);
    ]

let mut_io_misuse uml =
  let uml = declare_op uml "IODevice_cls" (op_with_input "pokeDevice") in
  add_messages uml
    [ U.Sequence.message ~from:"Tactuator" ~target:"IODevice" "pokeDevice" ~args:[ farg ] ]

let mut_undeployed_thread uml =
  map_deployments uml (fun dep ->
      {
        dep with
        U.Deployment.dep_allocation =
          List.filter
            (fun (t, _) -> not (String.equal t "Tactuator"))
            dep.U.Deployment.dep_allocation;
      })

let mut_node_without_saengine uml =
  map_deployments uml (fun dep ->
      {
        dep with
        U.Deployment.dep_nodes =
          List.map
            (fun (n : U.Deployment.node) -> { n with U.Deployment.node_stereotypes = [] })
            dep.U.Deployment.dep_nodes;
      })

(* The only UML defects that survive the synthesizer (Mapping rejects
   anything Validate flags) are the ones Validate does not police:
   a node missing its <<SAengine>> stereotype and an IO read whose
   result the mapping silently drops.  The gate and CLI tests use
   these two. *)
let mut_io_read_no_result uml =
  let uml = declare_op uml "IODevice_cls" (U.Operation.make "getDangling") in
  add_messages uml [ U.Sequence.message ~from:"Tsensor" ~target:"IODevice" "getDangling" ]

(* --- CAAM-level mutation helpers ----------------------------------- *)

let with_root (m : Model.t) root = { m with Model.root }

let map_system_at (m : Model.t) path f =
  with_root m (S.map_systems (fun p sys -> if p = path then f sys else sys) m.Model.root)

let first_channel (m : Model.t) =
  match Caam.channels m with
  | ch :: _ -> ch
  | [] -> failwith "model has no channels"

let mut_dangle_port m =
  let cpu = List.hd (Caam.cpus m) in
  map_system_at m [ cpu.S.blk_name ] (fun sys ->
      match S.lines sys with
      | l :: _ -> S.remove_line sys ~src:l.S.src ~dst:l.S.dst
      | [] -> failwith "CPU-SS has no lines")

let mut_unconnected_sink m = with_root m (S.add_block m.Model.root B.Terminator "mut_sink")
let mut_unconnected_source m = with_root m (S.add_block m.Model.root B.Constant "mut_src")

let mut_duplicate_name m =
  let cpu = List.hd (Caam.cpus m) in
  map_system_at m [ cpu.S.blk_name ] (fun sys ->
      { sys with S.sys_blocks = sys.S.sys_blocks @ [ List.hd sys.S.sys_blocks ] })

let mut_flip_protocol m =
  let path, ch = first_channel m in
  map_system_at m path (fun sys ->
      S.set_param sys ch.S.blk_name Caam.protocol_param (B.P_string "GFIFO"))

let mut_strip_cpu_role m =
  let cpu = List.hd (Caam.cpus m) in
  with_root m (S.set_param m.Model.root cpu.S.blk_name Caam.role_param (B.P_string "none"))

let mut_channel_fanout m =
  let path, ch = first_channel m in
  map_system_at m path (fun sys ->
      let sys = S.add_block sys B.Terminator "mut_tap" in
      S.add_line sys
        ~src:{ S.block = ch.S.blk_name; port = 1 }
        ~dst:{ S.block = "mut_tap"; port = 1 })

(* The issue's "drop a UnitDelay": turn every temporal barrier into a
   plain Gain (same port shape, no state) so the feedback loop becomes
   a zero-delay cycle again. *)
let mut_drop_unit_delay m =
  with_root m
    (S.map_systems
       (fun _ sys ->
         List.fold_left
           (fun sys (b : S.block) ->
             if b.S.blk_type = B.Unit_delay then
               S.replace_block sys { b with S.blk_type = B.Gain }
             else sys)
           sys (S.blocks sys))
       m.Model.root)

(* Re-number one nested Inport so its subsystem's boundary port has no
   matching block: the model keeps its structure but no longer flattens
   to a dataflow graph (UF190). *)
let mut_unflattenable m =
  let mutated = ref false in
  with_root m
    (S.map_systems
       (fun path sys ->
         if !mutated || path = [] then sys
         else
           match S.blocks_of_type sys B.Inport with
           | b :: _ ->
               mutated := true;
               S.set_param sys b.S.blk_name "Port" (B.P_int 99)
           | [] -> sys)
       m.Model.root)

let mut_zero_capacity m =
  let path, ch = first_channel m in
  map_system_at m path (fun sys -> S.set_param sys ch.S.blk_name "Capacity" (B.P_int 0))

(* --- golden report contents ----------------------------------------- *)

(* A deterministic multi-defect mutant exercising every report shape:
   errors, warnings, hints, and both renderers. *)
let defect_report () =
  let uml = mut_undeployed_thread (crane ()) in
  let caam = mut_unconnected_sink (mut_zero_capacity (mut_flip_protocol (crane_caam ()))) in
  A.Lint.check ~uml caam

let clean_report model =
  let uml = model () in
  A.Lint.check ~uml (Core.Flow.run uml).Core.Flow.caam

let json_report ~file ds = Obs.Json.to_string (D.list_to_json ~file ds) ^ "\n"

(* The crane schedule as Chrome trace JSON, including the flow-event
   arrows for every token hand-off: all of it comes from the static
   timing model, so the bytes are pinnable. *)
let crane_trace () =
  Umlfront_dataflow.Trace_export.chrome_json
    (Umlfront_dataflow.Sdf.of_model (crane_caam ()))
  ^ "\n"

(* The crane flow's span tree with timings scrubbed: the tree *shape*
   (span names, categories, nesting under flow.run) is deterministic
   for a given model even though the measured numbers never are, so the
   structure is pinnable byte-for-byte.  Runs inside its own telemetry
   context so generating goldens never perturbs the global sinks. *)
let crane_spans () =
  let ctx = Obs.Context.create ~trace:true () in
  ignore (Core.Flow.run ~ctx (crane ()));
  Obs.Context.with_current ctx (fun () ->
      Obs.Span_tree.render ~timings:false (Obs.Trace.events ()))

(* A deterministic registry exercising every OpenMetrics shape —
   counter, gauge, histogram summary — and, under [~labels:true], the
   same families again with label blocks interleaved.  The unlabeled
   rendering must stay byte-identical whether or not labeled series
   coexist, so both goldens share one builder. *)
let openmetrics_golden ~labels () =
  let r = Obs.Metrics.create () in
  let registry = r in
  Obs.Metrics.incr ~registry ~by:5 "serve.requests";
  Obs.Metrics.set_gauge ~registry "serve.inflight" 2.0;
  List.iter
    (Obs.Metrics.observe ~registry "serve.request_us")
    [ 100.0; 200.0; 300.0; 400.0 ];
  if labels then begin
    let lab = Obs.Openmetrics.labeled in
    Obs.Metrics.incr ~registry ~by:3
      (lab "serve.requests" [ ("endpoint", "/api/lint"); ("status", "200") ]);
    Obs.Metrics.incr ~registry ~by:2
      (lab "serve.requests" [ ("endpoint", "/api/lint"); ("status", "422") ]);
    Obs.Metrics.set_gauge ~registry
      (lab "serve.rolling.p95_us" [ ("endpoint", "/api/lint"); ("window", "60s") ])
      1500.0;
    List.iter
      (Obs.Metrics.observe ~registry
         (lab "serve.request_us" [ ("endpoint", "/api/lint") ]))
      [ 110.0; 220.0 ];
    (* Values needing escaping: backslash, quote, newline. *)
    Obs.Metrics.incr ~registry
      (lab "serve.odd" [ ("path", "a\\b\"c\nd") ])
  end;
  Obs.Openmetrics.render (Obs.Metrics.snapshot ~registry ())

(* The multithreaded code generated for the two reference models at 5
   rounds: C ([model.c] and the S-Function files), Java and SystemC.
   Pinned so that any change to what the generators emit is a diff. *)
let codegen_goldens =
  let module Codegen = Umlfront_codegen in
  List.concat_map
    (fun (label, model) ->
      let caam () = (Core.Flow.run (model ())).Core.Flow.caam in
      let c file () =
        List.assoc file (Codegen.Gen_threads.generate ~rounds:5 (caam ())).Codegen.Gen_threads.files
      in
      let name file = Printf.sprintf "codegen.%s.%s" label file in
      [
        (name "model.c", c "model.c");
        (name "sfunctions.h", c "sfunctions.h");
        (name "sfunctions.c", c "sfunctions.c");
        (name "GeneratedModel.java", fun () -> Codegen.Gen_java.generate ~rounds:5 (caam ()));
        (name "model_sc.cpp", fun () -> Codegen.Gen_systemc.generate ~rounds:5 (caam ()));
      ])
    [ ("crane", CS.Crane_system.model); ("synthetic", CS.Synthetic_system.model) ]

(* The KPN source of crane at 5 rounds, computed as /api/generate/kpn
   and `umlfront codegen -l kpn` compute it: the one generator that
   reads positions, through the laid-out .mdl text it embeds. *)
let kpn_golden () =
  let module Api = Umlfront_serve.Api in
  let opts = { Api.default_options with Api.rounds = 5 } in
  let caam = Api.caam opts (CS.Crane_system.model ()) in
  List.assoc "model_kpn.ml" (Api.files `Kpn opts caam)

(* The renderable golden files, keyed by file name under test/golden/;
   golden_gen.exe prints one of these, the dune diff rules pin each
   byte-for-byte. *)
let goldens =
  [
    ("crane.lint.txt", fun () -> D.render (clean_report CS.Crane_system.model));
    ( "crane.lint.json",
      fun () -> json_report ~file:"crane" (clean_report CS.Crane_system.model) );
    ("synthetic.lint.txt", fun () -> D.render (clean_report CS.Synthetic_system.model));
    ( "synthetic.lint.json",
      fun () -> json_report ~file:"synthetic" (clean_report CS.Synthetic_system.model) );
    ("crane_defects.lint.txt", fun () -> D.render (defect_report ()));
    ( "crane_defects.lint.json",
      fun () -> json_report ~file:"crane_defects" (defect_report ()) );
    ("crane.trace.json", crane_trace);
    ("crane.spans.txt", crane_spans);
    (* A full serialized HTTP response with the only nondeterministic
       header (Date) pinned: freezes the serving wire format — header
       order, casing, CRLF framing — byte-for-byte. *)
    ( "http.response.txt",
      fun () ->
        Umlfront_serve.Http.response
          ~headers:[ ("X-Cache", "hit") ]
          ~date:"Sun, 09 Aug 2026 12:00:00 GMT" ~status:200 "{\"ok\":true}\n" );
    (* The OpenMetrics exposition format, pinned twice: once without
       labels (the wire format every scraper has depended on since the
       first /metrics), once with label blocks — proving labels change
       only the lines that carry them. *)
    ("openmetrics.unlabeled.txt", fun () -> openmetrics_golden ~labels:false ());
    ("openmetrics.labeled.txt", fun () -> openmetrics_golden ~labels:true ());
  ]
  @ codegen_goldens
  @ [ ("codegen.crane.model_kpn.ml", kpn_golden) ]

let golden_names = List.map fst goldens

let render_golden name =
  match List.assoc_opt name goldens with
  | Some f -> f ()
  | None -> failwith (Printf.sprintf "unknown golden file %S" name)
