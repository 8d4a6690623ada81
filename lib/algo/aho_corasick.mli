(** Aho–Corasick multi-pattern string matching.

    The signature-matching substrate of the IDS NF (paper §6.1: "similar
    to the core signature matching component of Snort with 100 signature
    inspection rules"). Patterns are compiled once into a flat DFA over
    byte classes (bytes no pattern uses share one class), fronted by a
    Wu–Manber shift table over 2-byte blocks (Snort's "mwm" filter):
    {!matches_bytes} skips the bytes no occurrence can start in and runs
    the DFA only where one may, stepping each byte at most once, so it
    is linear in the range on any text. *)

type t

val build : string list -> t
(** [build patterns] compiles the automaton. Empty patterns are ignored.
    Pattern indices in match results refer to positions in [patterns]. *)

val scan : t -> string -> (int * int) list
(** [scan t text] is the list of matches [(pattern_index, end_position)]
    in order of occurrence; [end_position] is the offset just past the
    match. Overlapping and duplicate-pattern matches are all reported.
    Kept for tests: every output link the automaton follows shows in
    the list, where {!matches} stops at the first hit. *)

val matches : t -> string -> bool
(** [matches t text] is [true] iff any pattern occurs in [text]; stops at
    the first hit. *)

val matches_bytes : t -> bytes -> pos:int -> len:int -> bool
(** [matches_bytes t buf ~pos ~len] is [matches t (Bytes.sub_string buf
    pos len)] without the copy: the automaton runs over the range in
    place and allocates nothing. @raise Invalid_argument when the range
    is not inside [buf]. *)
