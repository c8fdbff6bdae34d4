type link = { rule : string; sources : string list; targets : string list }
type t = { mutable entries : link list }

let create () = { entries = [] }

let record t ~rule ~sources ~targets =
  t.entries <- { rule; sources; targets } :: t.entries

let links t = List.rev t.entries

let matching ?rule t =
  links t
  |> List.filter (fun l ->
         match rule with Some r -> String.equal l.rule r | None -> true)

let targets_of ?rule t source =
  matching ?rule t
  |> List.filter (fun l -> List.mem source l.sources)
  |> List.concat_map (fun l -> l.targets)

let rules t = links t |> List.map (fun l -> l.rule) |> List.sort_uniq compare
let size t = List.length t.entries

let pp ppf t =
  Fmt.pf ppf "@[<v>";
  List.iter
    (fun l ->
      Fmt.pf ppf "%s: [%s] -> [%s]@," l.rule (String.concat ", " l.sources)
        (String.concat ", " l.targets))
    (links t);
  Fmt.pf ppf "@]"
