(* Statistics, the result line and record, and the `--compare` mode. *)

module Json = Umlfront_obs.Json

type metric = { name : string; unit : string; value : float }

let metric name unit value = { name; unit; value }

(* Linear interpolation between closest ranks over a sorted array. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then Float.nan
  else
    let rank = p /. 100. *. float_of_int (n - 1) in
    let lo = int_of_float rank in
    let hi = min (n - 1) (lo + 1) in
    sorted.(lo) +. ((rank -. float_of_int lo) *. (sorted.(hi) -. sorted.(lo)))

let sorted_of_list l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  a

let median l = percentile (sorted_of_list l) 50.

(* JSON with every float printed in full, round-trip exact
   ([Json.to_string] keeps six decimals, which would round a small time
   to a constant). *)
let rec to_json_string = function
  | Json.Float f ->
      let short = Printf.sprintf "%.15g" f in
      if float_of_string short = f then short else Printf.sprintf "%.17g" f
  | Json.List items -> "[" ^ String.concat "," (List.map to_json_string items) ^ "]"
  | Json.Obj fields ->
      "{"
      ^ String.concat ","
          (List.map
             (fun (k, v) -> Json.to_string (Json.String k) ^ ":" ^ to_json_string v)
             fields)
      ^ "}"
  | v -> Json.to_string v

let metrics_json ms =
  Json.Obj
    (List.map
       (fun m -> (m.name, Json.Obj [ ("value", Json.Float m.value); ("unit", Json.String m.unit) ]))
       ms)

(* The last stdout line of a run. *)
let result_line ~correct ~attempted ~failed ms =
  to_json_string
    (Json.Obj
       [
         ("correct", Json.Bool correct);
         ("attempted", Json.Int attempted);
         ("failed", Json.Int failed);
         ("metrics", metrics_json ms);
       ])

let print_table ~workload ms =
  List.iter
    (fun m -> Printf.eprintf "  %-16s %-36s %14.4f %s\n" workload m.name m.value m.unit)
    ms;
  flush stderr

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let append_record file record =
  mkdir_p (Filename.dirname file);
  Out_channel.with_open_gen [ Open_append; Open_creat; Open_text ] 0o644 file (fun oc ->
      output_string oc (to_json_string record);
      output_char oc '\n')

(* --- --compare ------------------------------------------------------ *)

let read_json file =
  match Json.parse (In_channel.with_open_bin file In_channel.input_all) with
  | Ok j -> j
  | Error e -> failwith (file ^ ": " ^ e)

let read_records file =
  In_channel.with_open_bin file In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> String.trim l <> "")
  |> List.map (fun l ->
         match Json.parse l with Ok j -> j | Error e -> failwith (file ^ ": " ^ e))

let str key j = match Json.member key j with Some (Json.String s) -> s | _ -> ""

let num key j =
  match Option.bind (Json.member key j) Json.number with
  | Some f -> f
  | None -> Float.nan

let metric_value name record =
  match Option.bind (Json.member "metrics" record) (Json.member name) with
  | Some m -> num "value" m
  | None -> Float.nan

(* For each end-to-end metric and workload present in both files: the
   medians, and how much worse B is than A as a share of A's median.
   Returns false when any share exceeds the metric's bound. *)
let compare ~benchmark a_file b_file =
  let spec = read_json benchmark in
  let a = read_records a_file and b = read_records b_file in
  let workloads =
    List.sort_uniq compare (List.map (str "workload") a)
    |> List.filter (fun w -> List.exists (fun r -> str "workload" r = w) b)
  in
  let busy = List.filter (fun r -> Json.member "busy" r = Some (Json.Bool true)) (a @ b) in
  if busy <> [] then
    Printf.printf "warning: %d run(s) were taken on a busy machine (see other_cpu_share)\n"
      (List.length busy);
  Printf.printf "%-16s %-20s %12s %12s %8s %7s\n" "workload" "metric" "A median" "B median"
    "worse" "bound";
  let ok = ref true in
  List.iter
    (fun w ->
      List.iter
        (fun m ->
          let name = str "name" m and bound = num "bound" m in
          let med rs =
            median
              (List.filter_map
                 (fun r ->
                   if str "workload" r = w then
                     let v = metric_value name r in
                     if Float.is_nan v then None else Some v
                   else None)
                 rs)
          in
          let ma = med a and mb = med b in
          let worse =
            if str "better" m = "higher" then (ma -. mb) /. ma else (mb -. ma) /. ma
          in
          let fails = worse > bound || Float.is_nan worse in
          if fails then ok := false;
          Printf.printf "%-16s %-20s %12.4f %12.4f %+7.1f%% %6.0f%%%s\n" w name ma mb
            (100. *. worse) (100. *. bound)
            (if fails then "  REGRESSION" else ""))
        (Json.items (Option.value ~default:Json.Null (Json.member "end_to_end" spec))))
    workloads;
  !ok
