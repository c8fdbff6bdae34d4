(* The bench regression gate: diff two BENCH_*.json documents (as
   written by bench/main.exe Parts 4 and 5) and decide which way each
   throughput metric moved.

   Comparison is schema-aware:
   - umlfront-bench-obs/1: per case (matched by name), blocks/s parsed
     and actor firings/s — higher is better;
   - umlfront-bench-parallel/1: per DSE sweep point (matched by domain
     count), wall-clock ms — lower is better — and self-scaling speedup
     — higher is better — plus the parallel-determinism flag, which
     must not turn false;
   - umlfront-bench-exec-compiled/1: the compiled executor against the
     sequential reference — speedup_vs_seq per domain count (higher is
     better), wall-clock ms, and the bit-identity flag.

   The served daemon is benchmarked end to end by bench/e2e, not here.

   Multi-domain timing findings are hardware-gated: both documents
   record [hardware_domains] (what the runner actually had), and a
   sweep point asking for more domains than either side could provide
   is skipped — an under-provisioned CI runner cannot demonstrate a
   speedup, so the gate must not fail it for the hardware it lacks.
   Bit-identity flags and 1-domain metrics are never skipped; documents
   written before [hardware_domains] existed are not gated at all.

   A metric regresses when it moves past [tolerance] percent in its
   bad direction.  Improvements and in-tolerance noise never fail:
   wall-clock benches on shared CI boxes are noisy, which is why the
   gate ships with a generous default. *)

type direction = Higher_better | Lower_better

type finding = {
  f_metric : string;
  f_base : float;
  f_current : float;
  f_delta_pct : float; (* (current - base) / base * 100 *)
  f_direction : direction;
  f_regression : bool;
}

let default_tolerance = 25.0

let finding ~tolerance ~direction metric base current =
  let delta =
    if base = 0.0 then 0.0 else (current -. base) /. Float.abs base *. 100.0
  in
  let regression =
    (not (Float.is_nan delta))
    &&
    match direction with
    | Higher_better -> delta < -.tolerance
    | Lower_better -> delta > tolerance
  in
  {
    f_metric = metric;
    f_base = base;
    f_current = current;
    f_delta_pct = delta;
    f_direction = direction;
    f_regression = regression;
  }

let member_num key doc = Option.bind (Json.member key doc) Json.number

let member_str key doc =
  match Json.member key doc with Some (Json.String s) -> Some s | _ -> None

(* --- umlfront-bench-obs/1 ------------------------------------------- *)

let obs_findings ~tolerance base current =
  let cases doc =
    List.filter_map
      (fun case -> Option.map (fun name -> (name, case)) (member_str "name" case))
      (match Json.member "cases" doc with Some l -> Json.items l | None -> [])
  in
  let base_cases = cases base in
  let case_findings =
    List.concat_map
      (fun (name, cur) ->
        match List.assoc_opt name base_cases with
        | None -> []
        | Some old ->
            List.filter_map
              (fun (key, label) ->
                match (member_num key old, member_num key cur) with
                | Some b, Some c ->
                    Some
                      (finding ~tolerance ~direction:Higher_better
                         (Printf.sprintf "%s.%s" name label) b c)
                | _ -> None)
              [
                ("blocks_per_s_parsed", "blocks_per_s");
                ("actor_firings_per_s", "firings_per_s");
              ])
      (cases current)
  in
  (* Telemetry-context plumbing cost: the slowdown factor of a traced
     flow run over a ?ctx:None run.  Lower is better; documents written
     before the series existed simply lack the member and are skipped. *)
  let ctx_factor doc =
    Option.bind (Json.member "context_overhead" doc) (member_num "factor")
  in
  let ctx_findings =
    match (ctx_factor base, ctx_factor current) with
    | Some b, Some c ->
        [ finding ~tolerance ~direction:Lower_better "context_overhead.factor" b c ]
    | _ -> []
  in
  case_findings @ ctx_findings

(* --- hardware gating ------------------------------------------------- *)

(* Can a sweep point at [domains] be judged on these two documents?
   Only when every side that records its hardware actually had that
   many domains — otherwise the measurement says nothing about the
   code.  1-domain points are always judged. *)
let provisioned ~base ~current domains =
  domains <= 1
  || List.for_all
       (fun doc ->
         match member_num "hardware_domains" doc with
         | Some hw -> int_of_float hw >= domains
         | None -> true (* pre-gating document: keep the old behaviour *))
       [ base; current ]

let identical_finding label old cur =
  match (Json.member "identical" old, Json.member "identical" cur) with
  | Some (Json.Bool true), Some (Json.Bool false) ->
      [
        {
          f_metric = label ^ ".identical";
          f_base = 1.0;
          f_current = 0.0;
          f_delta_pct = -100.0;
          f_direction = Higher_better;
          f_regression = true;
        };
      ]
  | _ -> []

let num_finding ~tolerance ~direction key label old cur =
  match (member_num key old, member_num key cur) with
  | Some b, Some c -> [ finding ~tolerance ~direction (label ^ "." ^ key) b c ]
  | _ -> []

let sweep_rows section doc =
  match Option.bind (Json.member section doc) (Json.member "sweeps") with
  | Some l ->
      List.filter_map
        (fun row ->
          Option.map (fun d -> (int_of_float d, row)) (member_num "domains" row))
        (Json.items l)
  | None -> []

(* --- umlfront-bench-parallel/1 -------------------------------------- *)

let parallel_findings ~tolerance base current =
  let base_rows = sweep_rows "dse" base in
  List.concat_map
    (fun (domains, cur) ->
      match List.assoc_opt domains base_rows with
      | None -> []
      | Some old ->
          let label = Printf.sprintf "dse.%dd" domains in
          (* Timing and speedup say nothing on a machine without the
             domains; bit-identity must hold on any machine. *)
          (if provisioned ~base ~current domains then
             num_finding ~tolerance ~direction:Lower_better "ms" label old cur
             @ num_finding ~tolerance ~direction:Higher_better "speedup" label old cur
           else [])
          @ identical_finding label old cur)
    (sweep_rows "dse" current)

(* --- umlfront-bench-exec-compiled/1 ---------------------------------- *)

let exec_compiled_findings ~tolerance base current =
  let seq_ms =
    num_finding ~tolerance ~direction:Lower_better "exec_seq_ms" "exec" base current
  in
  let base_rows = sweep_rows "compiled" base in
  let rows =
    List.concat_map
      (fun (domains, cur) ->
        match List.assoc_opt domains base_rows with
        | None -> []
        | Some old ->
            let label = Printf.sprintf "compiled.%dd" domains in
            (* speedup_vs_seq at 1 domain is a hardware-independent
               ratio of two sequential runs — the compiled-beats-
               sequential gate proper — so it is never skipped. *)
            (if provisioned ~base ~current domains then
               num_finding ~tolerance ~direction:Lower_better "ms" label old cur
               @ num_finding ~tolerance ~direction:Higher_better "speedup" label old
                   cur
               @ num_finding ~tolerance ~direction:Higher_better "speedup_vs_seq"
                   label old cur
             else [])
            @ identical_finding label old cur)
      (sweep_rows "compiled" current)
  in
  seq_ms @ rows

(* --- entry points --------------------------------------------------- *)

let compare_docs ?(tolerance = default_tolerance) ~base ~current () =
  match (member_str "schema" base, member_str "schema" current) with
  | None, _ | _, None -> Error "missing \"schema\" member (not a BENCH_*.json?)"
  | Some bs, Some cs when bs <> cs ->
      Error (Printf.sprintf "schema mismatch: base %s vs current %s" bs cs)
  | Some "umlfront-bench-obs/1", _ -> Ok (obs_findings ~tolerance base current)
  | Some "umlfront-bench-parallel/1", _ ->
      Ok (parallel_findings ~tolerance base current)
  | Some "umlfront-bench-exec-compiled/1", _ ->
      Ok (exec_compiled_findings ~tolerance base current)
  | Some other, _ -> Error (Printf.sprintf "unknown bench schema %S" other)

let regressions findings = List.filter (fun f -> f.f_regression) findings

let render ~tolerance findings =
  let buf = Buffer.create 512 in
  let out fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  out "  %-36s %14s %14s %9s  %s\n" "metric" "base" "current" "delta" "verdict";
  List.iter
    (fun f ->
      out "  %-36s %14.2f %14.2f %+8.1f%%  %s\n" f.f_metric f.f_base f.f_current
        f.f_delta_pct
        (if f.f_regression then "REGRESSION"
         else
           match f.f_direction with
           | Higher_better when f.f_delta_pct > tolerance -> "improved"
           | Lower_better when f.f_delta_pct < -.tolerance -> "improved"
           | _ -> "ok"))
    findings;
  (match regressions findings with
  | [] -> out "  no regression beyond %.0f%% tolerance (%d metrics)\n" tolerance
            (List.length findings)
  | r ->
      out "  %d regression(s) beyond %.0f%% tolerance\n" (List.length r) tolerance);
  Buffer.contents buf
