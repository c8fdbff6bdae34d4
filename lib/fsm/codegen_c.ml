module M2t = Umlfront_transform.M2t

let guards fsm =
  fsm.Fsm.transitions
  |> List.filter_map (fun (tr : Fsm.transition) -> tr.t_guard)
  |> List.sort_uniq compare

(* With inline guards: partition into compilable expressions and
   callback-style opaque guards. *)
let split_guards ~inline_guards fsm =
  List.partition_map
    (fun g ->
      if inline_guards then
        match Guard_expr.parse g with Ok e -> Left (g, e) | Error _ -> Right g
      else Right g)
    (guards fsm)

let actions fsm =
  fsm.Fsm.transitions
  |> List.concat_map (fun (tr : Fsm.transition) -> tr.t_actions)
  |> List.sort_uniq compare

(* Every C identifier of one FSM.  Each namespace claims its names in
   declaration order, so [header] and [source] agree, and dedupes on
   the final spelling, after uppercasing for the enum constants: states
   [On] and [ON] become [<FSM>_ST_ON] and [<FSM>_ST_ON_2]. *)
type names = {
  prefix : string;
  state : string -> string;
  event : string -> string;
  guard : string -> string;
  action : string -> string;
}

let names ~opaque fsm =
  let prefix = M2t.sanitize fsm.Fsm.fsm_name in
  let upper = String.uppercase_ascii prefix in
  let namespace spell claims =
    let namer = M2t.make_namer spell in
    List.iter (fun raw -> ignore (namer raw)) claims;
    namer
  in
  let constant = namespace (fun s -> String.uppercase_ascii (M2t.sanitize s)) in
  let state = constant fsm.Fsm.states and event = constant (Fsm.events fsm) in
  let guard = namespace M2t.sanitize opaque in
  let action = namespace M2t.sanitize (actions fsm) in
  {
    prefix;
    state = (fun s -> upper ^ "_ST_" ^ state s);
    event = (fun e -> upper ^ "_EV_" ^ event e);
    guard = (fun g -> prefix ^ "_guard_" ^ guard g);
    action = (fun a -> prefix ^ "_action_" ^ action a);
  }

let header ?(inline_guards = false) fsm =
  let compiled, opaque = split_guards ~inline_guards fsm in
  let n = names ~opaque fsm in
  let name = n.prefix in
  let buf = Buffer.create 1024 in
  let out fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  out "#ifndef %s_H\n#define %s_H\n\n" (String.uppercase_ascii name) (String.uppercase_ascii name);
  out "#include <stdbool.h>\n\n";
  out "typedef enum {\n";
  List.iter (fun s -> out "  %s,\n" (n.state s)) fsm.Fsm.states;
  out "} %s_state_t;\n\n" name;
  out "typedef enum {\n";
  List.iter (fun e -> out "  %s,\n" (n.event e)) (Fsm.events fsm);
  out "} %s_event_t;\n\n" name;
  let guard_vars =
    compiled |> List.concat_map (fun (_, e) -> Guard_expr.variables e)
    |> List.sort_uniq compare
  in
  List.iter (fun v -> out "extern double %s; /* guard variable */\n" v) guard_vars;
  List.iter (fun g -> out "bool %s(void);\n" (n.guard g)) opaque;
  List.iter (fun a -> out "void %s(void);\n" (n.action a)) (actions fsm);
  out "\n%s_state_t %s_initial(void);\n" name name;
  out "%s_state_t %s_step(%s_state_t state, %s_event_t event);\n" name name name name;
  out "bool %s_is_final(%s_state_t state);\n" name name;
  out "\n#endif /* %s_H */\n" (String.uppercase_ascii name);
  Buffer.contents buf

let source ?(inline_guards = false) fsm =
  let compiled, opaque = split_guards ~inline_guards fsm in
  let n = names ~opaque fsm in
  let name = n.prefix in
  let buf = Buffer.create 2048 in
  let out fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  out "#include \"%s.h\"\n\n" name;
  out "%s_state_t %s_initial(void) { return %s; }\n\n" name name (n.state fsm.Fsm.initial);
  out "bool %s_is_final(%s_state_t state) {\n" name name;
  (match fsm.Fsm.finals with
  | [] -> out "  (void)state;\n  return false;\n"
  | finals ->
      out "  switch (state) {\n";
      List.iter (fun s -> out "  case %s:\n" (n.state s)) finals;
      out "    return true;\n  default:\n    return false;\n  }\n");
  out "}\n\n";
  out "%s_state_t %s_step(%s_state_t state, %s_event_t event) {\n" name name name name;
  out "  switch (state) {\n";
  List.iter
    (fun s ->
      out "  case %s:\n" (n.state s);
      out "    switch (event) {\n";
      let by_event = Hashtbl.create 8 in
      let event_order = ref [] in
      List.iter
        (fun (tr : Fsm.transition) ->
          (match Hashtbl.find_opt by_event tr.t_event with
          | Some trs -> Hashtbl.replace by_event tr.t_event (tr :: trs)
          | None ->
              Hashtbl.replace by_event tr.t_event [ tr ];
              event_order := tr.t_event :: !event_order))
        (Fsm.transitions_from fsm s);
      List.iter
        (fun e ->
          out "    case %s:\n" (n.event e);
          let trs = List.rev (Hashtbl.find by_event e) in
          List.iter
            (fun (tr : Fsm.transition) ->
              let fire indent =
                List.iter (fun a -> out "%s%s();\n" indent (n.action a)) tr.Fsm.t_actions;
                out "%sreturn %s;\n" indent (n.state tr.Fsm.t_dst)
              in
              match tr.Fsm.t_guard with
              | Some g -> (
                  match List.assoc_opt g compiled with
                  | Some e ->
                      out "      if (%s) {\n" (Guard_expr.to_c e);
                      fire "        ";
                      out "      }\n"
                  | None ->
                      out "      if (%s()) {\n" (n.guard g);
                      fire "        ";
                      out "      }\n")
              | None -> fire "      ")
            trs;
          out "      break;\n")
        (List.rev !event_order);
      out "    default:\n      break;\n    }\n";
      out "    break;\n")
    fsm.Fsm.states;
  out "  default:\n    break;\n  }\n";
  out "  return state; /* event dropped */\n}\n";
  Buffer.contents buf

let save ?inline_guards fsm ~dir =
  let name = M2t.sanitize fsm.Fsm.fsm_name in
  let write path content =
    let oc = open_out path in
    output_string oc content;
    close_out oc
  in
  write (Filename.concat dir (name ^ ".h")) (header ?inline_guards fsm);
  write (Filename.concat dir (name ^ ".c")) (source ?inline_guards fsm)
