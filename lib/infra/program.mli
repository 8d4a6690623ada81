(** Plan compilation for the compiled dataplane: every plan is
    translated once, at deployment time, into preresolved programs that
    the cores walk per packet. {!System.interpretive} is the reference
    the programs are held to. *)

type ccopy = { c_src : int; c_dst : int; c_full : bool }

(** One target of an emission. *)
type csend =
  | S_nf of int  (** slot in the dense NF-slot array, in [nf_impls] order *)
  | S_merge of { merge : cmerge; branch : int; nil : bool }
      (** a delivery filling [branch] of [merge] ([-1]: none) *)
  | S_deliver of int  (** packet version to emit *)

(** An action list, compiled. *)
and cprog = {
  p_copies : ccopy array;
  p_sends : csend array;
  p_static : int;  (** constant cycles of the action list *)
  p_full_srcs : int array;
      (** src versions of full copies: the dynamic per-byte term *)
}

(** A merge point, compiled. *)
and cmerge = {
  m_mid : int;
  m_id : int;
  m_spec : Nfp_core.Tables.merge_spec;  (** compile time only: branch resolution *)
  m_expected : int;
  m_versions : int array;  (** per-branch packet version *)
  m_result_version : int;
  m_ops : Nfp_core.Merge_op.t array;
  m_drop_any : bool;
  m_winner : int;  (** branch index for [`Priority_to]; -1 when unresolved *)
  mutable m_next : cprog;
  mutable m_nil_sends : csend array;  (** upward nil propagation *)
  mutable m_completion_static : int;  (** [|ops| * merge_op + m_next.p_static] *)
}

(** A packet's branch arriving at a merger. *)
type cdelivery = { d_ctx : Context.t; d_merge : cmerge; d_branch : int; d_nil : bool }

val packet_bytes : Context.t -> int -> int
(** Wire length of a context's version, 1500 for an absent one: what a
    full copy of it costs per byte. *)

val compile :
  cost:Nfp_sim.Cost.t ->
  Nfp_core.Tables.plan array ->
  (int * Nfp_core.Tables.nf_entry * 'nf) list ->
  (cprog * csend array) array * cprog array
(** [compile ~cost plans nf_impls]: each NF slot's action program and
    nil sends (what it emits when its NF drops the packet), in
    [nf_impls] order, and each graph's classifier program, indexed by
    MID - 1. NF targets become dense slot indices in [nf_impls] order,
    merge targets the {!cmerge} records themselves. Pure: it reads the
    plans and the cost model only.
    @raise Invalid_argument when an action targets an NF or merge point
    its plan does not define. *)

val exec_prog : cprog -> Context.t -> csend array
(** Run a program's copies; its sends are left to the caller. *)

val dyn_cycles : cost:Nfp_sim.Cost.t -> cprog -> Context.t -> int
(** The dynamic cycles of a program: the per-byte term of its full
    copies. *)
