(** Source NAT (paper Table 2: iptables NAT, R/W on all 5-tuple
    fields).

    Outbound packets get their source rewritten to the public address
    and a port allocated from a pool; the translation table is kept so
    the same flow keeps its binding and return traffic can be reversed
    with {!translate_back}. *)

type stats = { active_bindings : unit -> int; exhausted : unit -> int }

val create :
  ?name:string ->
  ?public_ip:int32 ->
  ?port_base:int ->
  ?port_count:int ->
  ?alloc:[ `Sequential | `Hashed ] ->
  unit ->
  Nf.t * stats
(** Packets are dropped when the port pool is exhausted.

    [alloc] picks the port allocator (default [`Sequential], a global
    cursor — bit-identical to the historical behaviour). The cursor is
    the number of bindings: a binding is added exactly when the cursor
    would advance, and removed only by a migration shard, which never
    runs on a sequential NAT, so a checkpoint of the [Per_flow General]
    binding table restores the cursor with it. The cursor is a global
    general write, so a sequential-alloc NAT derives the [Sequential]
    replication strategy; [`Hashed] computes each flow's
    port from the flow hash instead (distinct flows may share a port),
    which removes the global write and makes the NAT RSS-shardable
    ([Shared_nothing]). Kept for tests: [public_ip], [port_base],
    [port_count] and [alloc], which the tests pin the rewrite, pool
    exhaustion and the hashed allocator to. *)
