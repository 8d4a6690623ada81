open Nfp_packet

type t = Read of Field.t | Write of Field.t | Add_rm_header | Drop

type kind = K_read | K_write | K_add_rm | K_drop

let kind = function
  | Read _ -> K_read
  | Write _ -> K_write
  | Add_rm_header -> K_add_rm
  | Drop -> K_drop

let field = function
  | Read f | Write f -> Some f
  | Add_rm_header | Drop -> None

let equal = ( = )

let pp fmt = function
  | Read f -> Format.fprintf fmt "R(%a)" Field.pp f
  | Write f -> Format.fprintf fmt "W(%a)" Field.pp f
  | Add_rm_header -> Format.pp_print_string fmt "Add/Rm"
  | Drop -> Format.pp_print_string fmt "Drop"

let pp_profile fmt actions =
  Format.fprintf fmt "@[<h>{%a}@]"
    (Format.pp_print_list ~pp_sep:(fun f () -> Format.pp_print_string f ", ") pp)
    actions

let reads p = List.filter_map (function Read f -> Some f | _ -> None) p

let writes p = List.filter_map (function Write f -> Some f | _ -> None) p

let may_drop p = List.mem Drop p

let adds_or_removes_headers p = List.mem Add_rm_header p

let normalize p = List.sort_uniq Stdlib.compare p
