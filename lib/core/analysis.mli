(** NF-pair parallelizability statistics — paper §4.3.

    Feeds every ordered pair of registry NF types through Algorithm 1
    and weights the outcomes by deployment probability (the product of
    the two NFs' normalized deployment percentages, self-pairs
    included). The paper reports 53.8 % of pairs parallelizable, 41.5 %
    without extra resource overhead. *)

type pair_stat = {
  nf1 : string;
  nf2 : string;
  weight : float;
  verdict : Dependency.verdict;
}

type summary = {
  pairs : pair_stat list;
  parallelizable_pct : float;  (** paper: 53.8 % *)
  no_copy_pct : float;  (** paper: 41.5 % *)
  with_copy_pct : float;  (** paper: 12.3 % *)
}

val run : ?field_sensitive_write_read:bool -> unit -> summary
(** Over the weighted NF types of {!Nfp_nf.Registry.weighted_kinds}. *)

val pp : Format.formatter -> summary -> unit
