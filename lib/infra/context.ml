open Nfp_packet

(* Slot [v - 1] holds version [v], or [Packet.absent]: a context is
   allocated per packet on the dataplane's hot path, so it is exactly
   the versions the plan uses and nothing else. The PID and MID are read
   back from version 1, which [create] stamps and nothing ever
   replaces. *)
type t = Packet.t array

let create ~pid ~mid ~versions pkt =
  if versions < 1 || versions > Meta.max_version then
    invalid_arg "Context.create: version count out of range";
  let slots = Array.make versions Packet.absent in
  Packet.stamp pkt ~mid ~pid ~version:1;
  slots.(0) <- pkt;
  slots

let pid t = Packet.pid t.(0)

let mid t = Packet.mid t.(0)

let slot t v = if v < 1 || v > Array.length t then Packet.absent else t.(v - 1)

let get t v =
  let p = slot t v in
  if p == Packet.absent then None else Some p

let copy t ~src ~dst ~full =
  let pkt = slot t src in
  if pkt == Packet.absent then invalid_arg "Context.copy: source version missing";
  if dst < 2 || dst > Array.length t then
    invalid_arg "Context.copy: destination version out of range";
  let copy =
    if full then begin
      let c = Packet.full_copy pkt in
      Packet.set_version c dst;
      c
    end
    else Packet.header_only_copy pkt ~version:dst
  in
  t.(dst - 1) <- copy;
  Packet.wire_length copy

let versions t =
  let acc = ref [] in
  for i = Array.length t - 1 downto 0 do
    if t.(i) != Packet.absent then acc := (i + 1, t.(i)) :: !acc
  done;
  !acc
