type t =
  | Num of float
  | Var of string
  | Not of t
  | And of t * t
  | Or of t * t
  | Cmp of cmp * t * t
  | Arith of arith * t * t

and cmp = Eq | Ne | Lt | Le | Gt | Ge
and arith = Add | Sub | Mul | Div

exception Syntax of string

type lexer = { input : string; mutable pos : int }

let peek lx = if lx.pos < String.length lx.input then Some lx.input.[lx.pos] else None

let skip_while lx p =
  while
    match peek lx with
    | Some c when p c ->
        lx.pos <- lx.pos + 1;
        true
    | Some _ | None -> false
  do
    ()
  done

let skip_spaces lx = skip_while lx (fun c -> c = ' ' || c = '\t')

let looking_at lx s =
  let n = String.length s in
  lx.pos + n <= String.length lx.input && String.sub lx.input lx.pos n = s

let eat lx s =
  if looking_at lx s then (
    lx.pos <- lx.pos + String.length s;
    true)
  else false

let is_ident_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_'

let is_digit c = c >= '0' && c <= '9'

let rec parse_or lx =
  let left = parse_and lx in
  skip_spaces lx;
  if eat lx "||" then Or (left, parse_or lx) else left

and parse_and lx =
  let left = parse_not lx in
  skip_spaces lx;
  if eat lx "&&" then And (left, parse_and lx) else left

and parse_not lx =
  skip_spaces lx;
  if looking_at lx "!" && not (looking_at lx "!=") then (
    ignore (eat lx "!");
    Not (parse_not lx))
  else parse_cmp lx

and parse_cmp lx =
  let left = parse_arith lx in
  skip_spaces lx;
  let op =
    if eat lx "==" then Some Eq
    else if eat lx "!=" then Some Ne
    else if eat lx "<=" then Some Le
    else if eat lx ">=" then Some Ge
    else if looking_at lx "<" && not (looking_at lx "<<") && eat lx "<" then Some Lt
    else if looking_at lx ">" && eat lx ">" then Some Gt
    else None
  in
  match op with Some c -> Cmp (c, left, parse_arith lx) | None -> left

and parse_arith lx =
  let left = parse_term lx in
  let rec loop acc =
    skip_spaces lx;
    if eat lx "+" then loop (Arith (Add, acc, parse_term lx))
    else if looking_at lx "-" && not (looking_at lx "->") && eat lx "-" then
      loop (Arith (Sub, acc, parse_term lx))
    else acc
  in
  loop left

and parse_term lx =
  let left = parse_factor lx in
  let rec loop acc =
    skip_spaces lx;
    if eat lx "*" then loop (Arith (Mul, acc, parse_factor lx))
    else if eat lx "/" then loop (Arith (Div, acc, parse_factor lx))
    else acc
  in
  loop left

and parse_factor lx =
  skip_spaces lx;
  if eat lx "(" then (
    let e = parse_or lx in
    skip_spaces lx;
    if not (eat lx ")") then raise (Syntax "expected )");
    e)
  else if eat lx "-" then Arith (Sub, Num 0.0, parse_factor lx)
  else
    match peek lx with
    | Some c when is_digit c || c = '.' ->
        let start = lx.pos in
        skip_while lx (fun c -> is_digit c || c = '.');
        (* An exponent, as the printer writes [1e+15]: [e] or [E], an
           optional sign and at least one digit.  Without the digit the
           [e] is not part of the number. *)
        let mantissa_end = lx.pos in
        if eat lx "e" || eat lx "E" then (
          ignore (eat lx "+" || eat lx "-");
          match peek lx with
          | Some c when is_digit c -> skip_while lx is_digit
          | Some _ | None -> lx.pos <- mantissa_end);
        let text = String.sub lx.input start (lx.pos - start) in
        (try Num (float_of_string text)
         with Failure _ -> raise (Syntax ("bad number " ^ text)))
    | Some c when is_ident_char c && not (is_digit c) ->
        let start = lx.pos in
        skip_while lx is_ident_char;
        Var (String.sub lx.input start (lx.pos - start))
    | Some c -> raise (Syntax (Printf.sprintf "unexpected %C" c))
    | None -> raise (Syntax "unexpected end of guard")

let parse input =
  let lx = { input; pos = 0 } in
  match parse_or lx with
  | e ->
      skip_spaces lx;
      if lx.pos < String.length input then
        Error (Printf.sprintf "trailing input at %d in %S" lx.pos input)
      else Ok e
  | exception Syntax msg -> Error (Printf.sprintf "%s in %S" msg input)

let parse_exn input =
  match parse input with Ok e -> e | Error msg -> invalid_arg ("guard: " ^ msg)

let rec eval_float ~env = function
  | Num f -> f
  | Var v -> env v
  | Not e -> if eval ~env e then 0.0 else 1.0
  | And (a, b) -> if eval ~env a && eval ~env b then 1.0 else 0.0
  | Or (a, b) -> if eval ~env a || eval ~env b then 1.0 else 0.0
  | Cmp (op, a, b) ->
      let x = eval_float ~env a and y = eval_float ~env b in
      let holds =
        match op with
        | Eq -> x = y
        | Ne -> x <> y
        | Lt -> x < y
        | Le -> x <= y
        | Gt -> x > y
        | Ge -> x >= y
      in
      if holds then 1.0 else 0.0
  | Arith (op, a, b) -> (
      let x = eval_float ~env a and y = eval_float ~env b in
      match op with Add -> x +. y | Sub -> x -. y | Mul -> x *. y | Div -> x /. y)

and eval ~env e = eval_float ~env e <> 0.0

let variables e =
  let rec collect acc = function
    | Num _ -> acc
    | Var v -> v :: acc
    | Not e -> collect acc e
    | And (a, b) | Or (a, b) | Cmp (_, a, b) | Arith (_, a, b) -> collect (collect acc a) b
  in
  List.sort_uniq compare (collect [] e)

let cmp_symbol = function
  | Eq -> "=="
  | Ne -> "!="
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="

let arith_symbol = function Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/"

(* The shortest of 15, 16 and 17 significant digits that reads back to
   the same float; 17 always does. *)
let number f =
  let at digits = Printf.sprintf "%.*g" digits f in
  let exact text = float_of_string text = f in
  let s15 = at 15 in
  if exact s15 then s15
  else
    let s16 = at 16 in
    if exact s16 then s16 else at 17

let rec to_string = function
  | Num f -> number f
  | Var v -> v
  (* The outer parens keep negation re-parseable in any position: '!'
     is only legal at the [not] level of the grammar, but a
     parenthesized expression is a [factor]. *)
  | Not e -> Printf.sprintf "(!(%s))" (to_string e)
  | And (a, b) -> Printf.sprintf "(%s && %s)" (to_string a) (to_string b)
  | Or (a, b) -> Printf.sprintf "(%s || %s)" (to_string a) (to_string b)
  | Cmp (op, a, b) -> Printf.sprintf "(%s %s %s)" (to_string a) (cmp_symbol op) (to_string b)
  | Arith (op, a, b) ->
      Printf.sprintf "(%s %s %s)" (to_string a) (arith_symbol op) (to_string b)

let to_c = to_string

let evaluator bindings =
  let cache = Hashtbl.create 8 in
  fun guard ->
    let parsed =
      match Hashtbl.find_opt cache guard with
      | Some p -> p
      | None ->
          let p = parse guard in
          Hashtbl.replace cache guard p;
          p
    in
    match parsed with
    | Ok e ->
        eval ~env:(fun v -> Option.value (List.assoc_opt v bindings) ~default:0.0) e
    | Error _ -> true
