type t = Sip | Dip | Sport | Dport | Proto | Ttl | Tos | Len | Payload

let all = [ Sip; Dip; Sport; Dport; Proto; Ttl; Tos; Len; Payload ]

let equal = ( = )

let compare = Stdlib.compare

let to_string = function
  | Sip -> "sip"
  | Dip -> "dip"
  | Sport -> "sport"
  | Dport -> "dport"
  | Proto -> "proto"
  | Ttl -> "ttl"
  | Tos -> "tos"
  | Len -> "len"
  | Payload -> "payload"

let of_string s =
  match String.lowercase_ascii s with
  | "sip" -> Some Sip
  | "dip" -> Some Dip
  | "sport" -> Some Sport
  | "dport" -> Some Dport
  | "proto" -> Some Proto
  | "ttl" -> Some Ttl
  | "tos" -> Some Tos
  | "len" -> Some Len
  | "payload" -> Some Payload
  | _ -> None

let pp fmt t = Format.pp_print_string fmt (to_string t)
