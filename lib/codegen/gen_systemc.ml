module Model = Umlfront_simulink.Model
module Sdf = Umlfront_dataflow.Sdf
module Exec = Umlfront_dataflow.Exec
module M2t = Umlfront_transform.M2t
module E = Thread_emitter

let dialect =
  {
    E.pop = Printf.sprintf "%s.read()";
    push = Printf.sprintf "%s.write(%s);";
    math = ( ^ ) "std::";
    operand = Printf.sprintf "(%s)";
    min_max = None;
    discard = (fun _ x -> Printf.sprintf "(void)(%s);" x);
    sfunction =
      (fun t p a inputs ->
        let id = E.input_array t p a inputs in
        for port = 1 to a.Sdf.actor_outputs do
          M2t.line t "double %s = sfun_%s(in_%s, %d, %d);" (E.out_var p a port)
            (p.E.sfn (E.sfunction_name a.Sdf.actor_block))
            id a.Sdf.actor_inputs (port - 1)
        done);
    print = Printf.sprintf "std::printf(\"%s %%d %%.9f\\n\", round, %s);";
  }

(* The queues an owner reads ([`In]) or writes ([`Out]), in queue order. *)
let ports (p : E.program) owner =
  List.filter_map
    (fun (f : E.fifo) ->
      if f.E.src = owner then Some (f.E.var, `Out)
      else if f.E.dst = owner then Some (f.E.var, `In)
      else None)
    p.E.fifos

let port_decls t ports =
  List.iter
    (fun (v, dir) ->
      match dir with
      | `In -> M2t.line t "sc_fifo_in<double> %s;" v
      | `Out -> M2t.line t "sc_fifo_out<double> %s;" v)
    ports

let generate ?(rounds = 10) (m : Model.t) =
  let p = E.program m in
  let t = M2t.create () in
  M2t.line t "// Generated SystemC platform for CAAM model %s." m.Model.model_name;
  M2t.line t "// One SC_MODULE per Thread-SS; sc_fifo channels carry the";
  M2t.line t "// protocols chosen by channel inference (SWFIFO intra-CPU,";
  M2t.line t "// GFIFO inter-CPU over the bus).";
  M2t.line t "#include <systemc.h>";
  M2t.line t "#include <cmath>";
  M2t.blank t;
  M2t.line t "static const int ROUNDS = %d;" rounds;
  M2t.blank t;
  (* Default S-function behaviours, constants in lockstep with the
     reference simulator. *)
  List.iter
    (fun name ->
      let ca, cb = Exec.sfunction_constants name in
      M2t.line t "static double sfun_%s(const double *in, int n_in, int port) {" (p.E.sfn name);
      M2t.indented t (fun () ->
          M2t.line t "double total = 0.0;";
          M2t.line t "for (int i = 0; i < n_in; ++i) total += in[i];";
          M2t.line t "return %.17g * total + %.17g + 0.1 * port;" ca cb);
      M2t.line t "}")
    (E.sfunctions p);
  M2t.blank t;
  (* One module per worker thread. *)
  List.iter
    (fun (w : E.worker) ->
      M2t.line t "SC_MODULE(Thread_%s) {" w.E.id;
      M2t.indented t (fun () ->
          port_decls t (ports p (E.Worker (w.E.cpu, w.E.thread)));
          List.iter
            (fun a ->
              if E.is_delay a then
                M2t.line t "double %s = %.17g;" (E.state_var p a) (E.initial_condition a))
            w.E.actors;
          M2t.blank t;
          M2t.line t "void behaviour() {";
          M2t.indented t (fun () -> E.worker_rounds t dialect p w);
          M2t.line t "}";
          M2t.blank t;
          M2t.line t "SC_CTOR(Thread_%s) { SC_THREAD(behaviour); }" w.E.id);
      M2t.line t "};";
      M2t.blank t)
    p.E.workers;
  (* Environment module: feeds top-level inports, drains outports. *)
  let env_ports = ports p E.Env in
  M2t.line t "SC_MODULE(Environment) {";
  M2t.indented t (fun () ->
      port_decls t env_ports;
      M2t.line t "void behaviour() {";
      M2t.indented t (fun () ->
          E.environment_rounds t dialect p;
          M2t.line t "sc_stop();");
      M2t.line t "}";
      M2t.blank t;
      M2t.line t "SC_CTOR(Environment) { SC_THREAD(behaviour); }");
  M2t.line t "};";
  M2t.blank t;
  (* Top level. *)
  M2t.line t "int sc_main(int, char **) {";
  M2t.indented t (fun () ->
      List.iter
        (fun (f : E.fifo) ->
          M2t.line t "sc_fifo<double> %s(64); // %s: %s -> %s" f.E.var f.E.protocol
            f.E.edge.Sdf.edge_src f.E.edge.Sdf.edge_dst)
        p.E.fifos;
      List.iter
        (fun (w : E.worker) ->
          let inst = "i_" ^ w.E.id in
          M2t.line t "Thread_%s %s(\"%s\");" w.E.id inst inst;
          List.iter
            (fun (v, _) -> M2t.line t "%s.%s(%s);" inst v v)
            (ports p (E.Worker (w.E.cpu, w.E.thread))))
        p.E.workers;
      M2t.line t "Environment env(\"env\");";
      List.iter (fun (v, _) -> M2t.line t "env.%s(%s);" v v) env_ports;
      M2t.line t "sc_start();";
      M2t.line t "return 0;");
  M2t.line t "}";
  M2t.contents t
