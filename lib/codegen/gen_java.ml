module Model = Umlfront_simulink.Model
module Sdf = Umlfront_dataflow.Sdf
module Exec = Umlfront_dataflow.Exec
module M2t = Umlfront_transform.M2t
module E = Thread_emitter

let dialect =
  {
    E.pop = Printf.sprintf "%s.take()";
    push = Printf.sprintf "%s.put(%s);";
    math = (function "fabs" -> "Math.abs" | f -> "Math." ^ f);
    operand = Fun.id;
    min_max = Some ("Math.min", "Math.max");
    discard = Printf.sprintf "double unused_%s = %s;";
    sfunction =
      (fun t p a inputs ->
        let fn = E.sfunction_name a.Sdf.actor_block in
        let ca, cb = Exec.sfunction_constants fn in
        for port = 1 to a.Sdf.actor_outputs do
          M2t.line t "double %s = sfun(\"%s\", %.17g, %.17g, new double[]{%s}) + 0.1 * %d;"
            (E.out_var p a port) fn ca cb (String.concat ", " inputs) (port - 1)
        done);
    print = Printf.sprintf "System.out.printf(\"%s %%d %%.9f%%n\", round, %s);";
  }

let generate ?(rounds = 10) ?(class_name = "GeneratedModel") (m : Model.t) =
  let p = E.program m in
  let t = M2t.create ~indent_step:2 () in
  M2t.line t "/* Generated from CAAM model %s. */" m.Model.model_name;
  M2t.line t "import java.util.concurrent.ArrayBlockingQueue;";
  M2t.blank t;
  M2t.line t "public final class %s {" class_name;
  M2t.indented t (fun () ->
      M2t.line t "static final int ROUNDS = %d;" rounds;
      List.iter
        (fun (f : E.fifo) ->
          M2t.line t
            "static final ArrayBlockingQueue<Double> %s = new ArrayBlockingQueue<>(64); // %s: %s -> %s"
            f.E.var f.E.protocol f.E.edge.Sdf.edge_src f.E.edge.Sdf.edge_dst)
        p.E.fifos;
      List.iter
        (fun a -> M2t.line t "static double %s = %.17g;" (E.state_var p a) (E.initial_condition a))
        (E.delays p);
      M2t.blank t;
      M2t.line t "static double sfun(String name, double a, double b, double[] in) {";
      M2t.indented t (fun () ->
          M2t.line t "double total = 0.0;";
          M2t.line t "for (double x : in) total += x;";
          M2t.line t "return a * total + b;");
      M2t.line t "}";
      List.iter
        (fun (w : E.worker) ->
          M2t.blank t;
          M2t.line t "static void run_%s() throws InterruptedException {" w.E.id;
          M2t.indented t (fun () -> E.worker_rounds t dialect p w);
          M2t.line t "}")
        p.E.workers;
      M2t.blank t;
      M2t.line t "public static void main(String[] args) throws InterruptedException {";
      M2t.indented t (fun () ->
          M2t.line t "Thread[] workers = new Thread[%d];" (List.length p.E.workers);
          List.iteri
            (fun i (w : E.worker) ->
              M2t.line t
                "workers[%d] = new Thread(() -> { try { run_%s(); } catch (InterruptedException e) { Thread.currentThread().interrupt(); } });"
                i w.E.id)
            p.E.workers;
          M2t.line t "for (Thread w : workers) w.start();";
          E.environment_rounds t dialect p;
          M2t.line t "for (Thread w : workers) w.join();");
      M2t.line t "}");
  M2t.line t "}";
  M2t.contents t
