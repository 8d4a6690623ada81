type t = { sip : int32; dip : int32; sport : int; dport : int; proto : int }

let make ~sip ~dip ~sport ~dport ~proto =
  let port_ok p = p >= 0 && p <= 0xffff in
  if not (port_ok sport && port_ok dport) then invalid_arg "Flow.make: port out of range";
  if proto < 0 || proto > 0xff then invalid_arg "Flow.make: protocol out of range";
  { sip; dip; sport; dport; proto }

let equal a b =
  Int32.equal a.sip b.sip && Int32.equal a.dip b.dip && a.sport = b.sport && a.dport = b.dport
  && a.proto = b.proto

let hash t = Nfp_algo.Hashing.tuple5 t.sip t.dip t.sport t.dport t.proto

let reverse t = { t with sip = t.dip; dip = t.sip; sport = t.dport; dport = t.sport }

let ip_to_string ip =
  let b n = Int32.to_int (Int32.logand (Int32.shift_right_logical ip n) 0xffl) in
  Printf.sprintf "%d.%d.%d.%d" (b 24) (b 16) (b 8) (b 0)

let ip_of_string s =
  match String.split_on_char '.' s with
  | [ a; b; c; d ] -> (
      match (int_of_string_opt a, int_of_string_opt b, int_of_string_opt c, int_of_string_opt d)
      with
      | Some a, Some b, Some c, Some d
        when a >= 0 && a < 256 && b >= 0 && b < 256 && c >= 0 && c < 256 && d >= 0 && d < 256 ->
          Some
            (Int32.logor
               (Int32.shift_left (Int32.of_int a) 24)
               (Int32.of_int ((b lsl 16) lor (c lsl 8) lor d)))
      | _ -> None)
  | _ -> None

let pp fmt t =
  Format.fprintf fmt "%s:%d -> %s:%d (proto %d)" (ip_to_string t.sip) t.sport
    (ip_to_string t.dip) t.dport t.proto
