open Nfp_packet

type t =
  | Modify of { dst : int; src : int; field : Field.t }
  | Align_headers of { dst : int; src : int }

(* The version store is [get env]: the compiled merger passes
   [Context.slot] and the context itself, so applying an op allocates
   nothing. *)
let apply op ~get env =
  match op with
  | Modify { dst; src; field } ->
      let d = get env dst and s = get env src in
      if d != Packet.absent && s != Packet.absent then Packet.transfer_field ~dst:d ~src:s field
  | Align_headers { dst; src } -> (
      let d = get env dst and s = get env src in
      if d != Packet.absent && s != Packet.absent then
        match (Packet.ah_fields s, Packet.has_ah d) with
        | Some (spi, seq, icv), false ->
            (* Transplant the AH header the source version gained. *)
            Packet.add_ah d ~spi ~seq ~icv
        | None, true -> ignore (Packet.remove_ah d)
        | Some _, true | None, false -> ())

let version_mask = function
  | Modify { dst; src; _ } | Align_headers { dst; src } -> (1 lsl dst) lor (1 lsl src)

let pp fmt = function
  | Modify { dst; src; field } ->
      Format.fprintf fmt "modify(v%d.%a, v%d.%a)" dst Field.pp field src Field.pp field
  | Align_headers { dst; src } -> Format.fprintf fmt "align_headers(v%d, v%d)" dst src
