open Nfp_packet

type stats = {
  forwarded : unit -> int;
  no_route : unit -> int;
  last_next_hop : unit -> int option;
}

type Nf.state += State of int * int * int option

let build_table n =
  Nfp_algo.Lpm.of_list
    (List.init n (fun i ->
         (* Prefixes spread over 10.0.0.0/8 with lengths 16..28. *)
         let len = 16 + (i mod 13) in
         let prefix = Int32.of_int ((10 lsl 24) lor ((i * 2654435761) land 0x00ffff00)) in
         (prefix, len, i mod 16)))

(* One FIB per route count, shared by every Forwarder built with that
   count: an [Lpm.t] is immutable and the "fib" state is [Read_only],
   so 256 tenant Forwarders need one table, not 256, and a deployment
   rebuilt per probe of a lossless search builds none. *)
let fib = Nf.shared build_table

(* [last] is a last-writer-wins cell read back by telemetry and folded
   into the digest: its final value depends on which packet the NF saw
   last across all flows, a global general write. That one cell pins
   the forwarder to Sequential — an honest cost of keeping the
   telemetry; a deployment that dropped [last_next_hop] would be
   Shared_nothing like the firewall. *)
let state_access =
  State_access.
    [
      global Read_only "fib";
      global Commutative "forwarded-counter";
      global Commutative "no-route-counter";
      global General "last-next-hop";
    ]

let create ?(name = "fwd") ?(routes = 1000) () =
  let table = fib routes in
  let forwarded = ref 0 and no_route = ref 0 in
  (* The last next hop, -1 before the first packet: an immediate int,
     so recording it allocates nothing. *)
  let last = ref (-1) in
  let last_opt () = if !last < 0 then None else Some !last in
  let process pkt =
    (match Nfp_algo.Lpm.lookup_int table (Packet.dip_int pkt) with
    | Some hop -> last := hop
    | None ->
        incr no_route;
        last := 0);
    incr forwarded;
    Nf.Forward
  in
  let snapshot () = State (!forwarded, !no_route, last_opt ()) in
  let restore = function
    | State (f, n, l) ->
        forwarded := f;
        no_route := n;
        last := Option.value l ~default:(-1)
    | _ -> invalid_arg "L3_forwarder.restore: foreign state"
  in
  ( Nf.make ~name ~kind:"Forwarder"
      ~profile:[ Action.Read Field.Dip ]
      ~cost_cycles:(fun _ -> 110)
      ~state_digest:(fun () ->
        Nfp_algo.Hashing.combine !forwarded
          (Nfp_algo.Hashing.combine !no_route (!last + 1)))
      ~snapshot ~restore ~state_access process,
    {
      forwarded = (fun () -> !forwarded);
      no_route = (fun () -> !no_route);
      last_next_hop = last_opt;
    } )
