open Nfp_packet

type stats = { per_backend : unit -> int array }

type Nf.state += State of int array

let default_backends =
  Array.init 8 (fun i -> Int32.of_int ((172 lsl 24) lor (16 lsl 16) lor (i + 1)))

let default_vip = Int32.of_int ((192 lsl 24) lor (168 lsl 16) lor 1)

let profile =
  Action.
    [
      Read Field.Sip;
      Write Field.Sip;
      Read Field.Dip;
      Write Field.Dip;
      Read Field.Sport;
      Read Field.Dport;
    ]

(* The backend pick is a pure function of the flow hash, not of the
   counters — the counters only tally the choice — so replicas reach
   identical rewrites and the per-backend counts sum. *)
let state_access =
  State_access.[ global Commutative "backend-counters" ]

let merge states =
  match states with
  | [] -> invalid_arg "Load_balancer.merge: no states"
  | State first :: _ ->
      let counts = Array.make (Array.length first) 0 in
      List.iter
        (function
          | State c ->
              Array.iteri (fun i n -> counts.(i) <- counts.(i) + n) c
          | _ -> invalid_arg "Load_balancer.merge: foreign state")
        states;
      State counts
  | _ -> invalid_arg "Load_balancer.merge: foreign state"

let rec create ?(name = "lb") ?(vip = default_vip) ?(backends = default_backends) () =
  if Array.length backends = 0 then invalid_arg "Load_balancer.create: no backends";
  let counts = Array.make (Array.length backends) 0 in
  let process pkt =
    let i = Packet.flow_hash pkt mod Array.length backends in
    counts.(i) <- counts.(i) + 1;
    Packet.set_dip pkt backends.(i);
    Packet.set_sip pkt vip;
    Nf.Forward
  in
  let snapshot () = State (Array.copy counts) in
  let restore = function
    | State saved -> Array.blit saved 0 counts 0 (Array.length counts)
    | _ -> invalid_arg "Load_balancer.restore: foreign state"
  in
  ( Nf.make ~name ~kind:"LoadBalancer" ~profile
      ~cost_cycles:(fun _ -> 200)
      ~state_digest:(fun () -> Array.fold_left Nfp_algo.Hashing.combine 17 counts)
      ~snapshot ~restore ~state_access
      ~fresh:(fun () -> fst (create ~name ~vip ~backends ()))
      ~merge
        (* Only commutative counters: migration moves the zero state. *)
      ~extract:(fun _ -> State (Array.make (Array.length backends) 0))
      process,
    { per_backend = (fun () -> Array.copy counts) } )
