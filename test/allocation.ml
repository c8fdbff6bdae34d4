(* Allocation counting helper shared by test modules. *)

(* Words [f] allocates on this domain, minor and major, and its result.
   A minor collection on each side brings the counters up to date:
   between collections they leave out the minor heap's current fill. *)
let words f =
  Gc.minor ();
  let before = Gc.quick_stat () in
  let result = f () in
  Gc.minor ();
  let after = Gc.quick_stat () in
  ( after.Gc.minor_words -. before.Gc.minor_words
    +. (after.Gc.major_words -. before.Gc.major_words)
    -. (after.Gc.promoted_words -. before.Gc.promoted_words),
    result )
