(** Textual policy language, the paper's rule syntax plus NF bindings.

    {[
      # comments run to end of line
      NF(vpn, VPN)              # bind instance name -> registry type
      NF(fw, Firewall)
      Position(vpn, first)
      Order(fw, before, lb)
      Priority(ips > fw)
      Chain(vpn, mon, fw, lb)   # sugar: Order rules between neighbours
    ]}

    Keywords and type names are case-insensitive; instance names are
    case-sensitive identifiers. *)

val parse : string -> (Rule.policy, string) result
(** Parse a whole policy text; the error string carries a line number. *)

val parse_rule : string -> (Rule.t, string) result
(** Parse a single rule (no bindings, no comments). Kept for tests:
    the rule-syntax tests parse one rule at a time. *)

val to_string : Rule.policy -> string
(** Render back to parseable text. Kept for tests: the round-trip
    oracle for {!parse}. *)
