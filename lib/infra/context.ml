open Nfp_packet

(* [slots] holds exactly the versions the packet's plan uses (index 0
   is unused): a context is allocated per packet on the dataplane's hot
   path, every pure chain needs version 1 only, and a graph that copies
   would otherwise pay for a second, grown array on its first copy. A
   version past the plan's count still grows the array to the full
   table. *)
type t = { pid : int64; mid : int; mutable slots : Packet.t option array }

let max_versions = Meta.max_version

let create ~pid ~mid ~versions pkt =
  if versions < 1 || versions > max_versions then
    invalid_arg "Context.create: version count out of range";
  let slots = Array.make (versions + 1) None in
  Packet.stamp pkt ~mid ~pid ~version:1;
  slots.(1) <- Some pkt;
  { pid; mid; slots }

let pid t = t.pid

let mid t = t.mid

let get t v = if v < 1 || v >= Array.length t.slots then None else t.slots.(v)

let set t v pkt =
  if v < 1 || v > max_versions then invalid_arg "Context.set: version out of range";
  if v >= Array.length t.slots then begin
    let grown = Array.make (max_versions + 1) None in
    Array.blit t.slots 0 grown 0 (Array.length t.slots);
    t.slots <- grown
  end;
  t.slots.(v) <- Some pkt

let copy t ~src ~dst ~full =
  match get t src with
  | None -> invalid_arg "Context.copy: source version missing"
  | Some pkt ->
      let copy =
        if full then begin
          let c = Packet.full_copy pkt in
          Packet.set_version c dst;
          c
        end
        else Packet.header_only_copy pkt ~version:dst
      in
      set t dst copy;
      Packet.wire_length copy

let versions t =
  let acc = ref [] in
  for v = Array.length t.slots - 1 downto 1 do
    match t.slots.(v) with Some p -> acc := (v, p) :: !acc | None -> ()
  done;
  !acc
