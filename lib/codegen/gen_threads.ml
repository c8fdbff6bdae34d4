module S = Umlfront_simulink.System
module Model = Umlfront_simulink.Model
module Sdf = Umlfront_dataflow.Sdf
module Exec = Umlfront_dataflow.Exec
module M2t = Umlfront_transform.M2t
module E = Thread_emitter

type generated = { files : (string * string) list }

let sanitize = E.sanitize

let dialect =
  {
    E.pop = Printf.sprintf "fifo_pop(&%s)";
    push = Printf.sprintf "fifo_push(&%s, %s);";
    math = Fun.id;
    operand = Fun.id;
    min_max = None;
    discard = (fun _ x -> Printf.sprintf "(void)(%s);" x);
    sfunction =
      (fun t p a inputs ->
        let id = E.input_array t p a inputs in
        M2t.line t "double out_%s[%d];" id (max a.Sdf.actor_outputs 1);
        M2t.line t "sfun_%s(in_%s, %d, out_%s, %d);"
          (p.E.sfn (E.sfunction_name a.Sdf.actor_block))
          id a.Sdf.actor_inputs id a.Sdf.actor_outputs;
        for port = 1 to a.Sdf.actor_outputs do
          M2t.line t "double %s = out_%s[%d];" (E.out_var p a port) id (port - 1)
        done);
    print = Printf.sprintf "printf(\"%s %%d %%.9f\\n\", round, %s);";
  }

let sfunctions_header (p : E.program) =
  let t = M2t.create () in
  M2t.line t "#ifndef UMLFRONT_SFUNCTIONS_H";
  M2t.line t "#define UMLFRONT_SFUNCTIONS_H";
  M2t.blank t;
  List.iter
    (fun name ->
      M2t.line t "void sfun_%s(const double *in, int n_in, double *out, int n_out);"
        (p.E.sfn name))
    (E.sfunctions p);
  M2t.blank t;
  M2t.line t "#endif";
  M2t.contents t

let sfunctions_source (p : E.program) =
  let t = M2t.create () in
  M2t.line t "#include \"sfunctions.h\"";
  M2t.blank t;
  M2t.line t "/* Default affine behaviours; replace with the real algorithm";
  M2t.line t "   implementations.  Constants mirror the reference simulator. */";
  List.iter
    (fun name ->
      let a, b = Exec.sfunction_constants name in
      M2t.blank t;
      M2t.line t "void sfun_%s(const double *in, int n_in, double *out, int n_out) {"
        (p.E.sfn name);
      M2t.indented t (fun () ->
          M2t.line t "double total = 0.0;";
          M2t.line t "for (int i = 0; i < n_in; ++i) total += in[i];";
          M2t.line t "for (int j = 0; j < n_out; ++j)";
          M2t.line t "  out[j] = %.17g * total + %.17g + 0.1 * j;" a b);
      M2t.line t "}")
    (E.sfunctions p);
  M2t.contents t

(* The Depth parameter of the outermost channel the edge crosses. *)
let depth (m : Model.t) (e : Sdf.edge) =
  let rec find_block sys name =
    match S.find_block sys name with
    | Some b -> Some b
    | None ->
        List.find_map
          (fun (blk : S.block) -> Option.bind blk.S.blk_system (fun sub -> find_block sub name))
          (S.blocks sys)
  in
  e.Sdf.edge_channels
  |> List.find_map (fun (name, _) ->
         Option.bind (find_block m.Model.root name) (fun b -> S.param_int b "Depth"))
  |> Option.value ~default:64

let model_source ~rounds (p : E.program) =
  let t = M2t.create () in
  M2t.line t "/* Generated from CAAM model %s.  One POSIX thread per Thread-SS;"
    p.E.model.Model.model_name;
  M2t.line t "   FIFOs carry the protocols chosen by channel inference. */";
  M2t.line t "#include <pthread.h>";
  M2t.line t "#include <stdio.h>";
  M2t.line t "#include \"fifo.h\"";
  M2t.line t "#include \"sfunctions.h\"";
  M2t.blank t;
  M2t.line t "#define ROUNDS %d" rounds;
  M2t.blank t;
  List.iter
    (fun (f : E.fifo) ->
      M2t.line t "static fifo_t %s; /* %s -> %s (%s) */" f.E.var f.E.edge.Sdf.edge_src
        f.E.edge.Sdf.edge_dst f.E.protocol)
    p.E.fifos;
  M2t.blank t;
  List.iter
    (fun a -> M2t.line t "static double %s = %.17g;" (E.state_var p a) (E.initial_condition a))
    (E.delays p);
  List.iter
    (fun (w : E.worker) ->
      M2t.blank t;
      M2t.line t "/* Thread-SS %s on CPU-SS %s */" w.E.thread w.E.cpu;
      M2t.line t "static void *run_%s(void *arg) {" w.E.id;
      M2t.indented t (fun () ->
          M2t.line t "(void)arg;";
          E.worker_rounds t dialect p w;
          M2t.line t "return 0;");
      M2t.line t "}")
    p.E.workers;
  (* main: environment + thread management. *)
  M2t.blank t;
  M2t.line t "int main(void) {";
  M2t.indented t (fun () ->
      List.iter
        (fun (f : E.fifo) ->
          M2t.line t "%s(&%s, %d);"
            (if f.E.protocol = "GFIFO" then "gfifo_init" else "swfifo_init")
            f.E.var (depth p.E.model f.E.edge))
        p.E.fifos;
      M2t.line t "pthread_t workers[%d];" (max 1 (List.length p.E.workers));
      List.iteri
        (fun i (w : E.worker) -> M2t.line t "pthread_create(&workers[%d], 0, run_%s, 0);" i w.E.id)
        p.E.workers;
      E.environment_rounds t dialect p;
      List.iteri (fun i _ -> M2t.line t "pthread_join(workers[%d], 0);" i) p.E.workers;
      M2t.line t "return 0;");
  M2t.line t "}";
  M2t.contents t

let generate ?(rounds = 10) (m : Model.t) =
  let p = E.program m in
  {
    files =
      [
        ("model.c", "#include <math.h>\n" ^ model_source ~rounds p);
        ("sfunctions.h", sfunctions_header p);
        ("sfunctions.c", sfunctions_source p);
        ("fifo.h", Fifo_runtime.header);
        ("fifo.c", Fifo_runtime.source);
      ];
  }

let save ?rounds m ~dir =
  let { files } = generate ?rounds m in
  List.iter
    (fun (name, content) ->
      let oc = open_out (Filename.concat dir name) in
      output_string oc content;
      close_out oc)
    files
