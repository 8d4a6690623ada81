type 'a node = {
  mutable value : 'a option;
  mutable zero : 'a node option;
  mutable one : 'a node option;
}

type 'a t = 'a node

let make_node () = { value = None; zero = None; one = None }

let create = make_node

(* Bit [i] of an address, counting from the most significant bit. *)
let bit addr i = Int32.logand (Int32.shift_right_logical addr (31 - i)) 1l = 1l

let check_len len =
  if len < 0 || len > 32 then invalid_arg "Lpm: prefix length must be in [0, 32]"

let add t ~prefix ~len v =
  check_len len;
  let rec go node i =
    if i = len then node.value <- Some v
    else if bit prefix i then begin
      (match node.one with
      | None -> node.one <- Some (make_node ())
      | Some _ -> ());
      match node.one with
      | Some child -> go child (i + 1)
      | None -> assert false
    end
    else begin
      (match node.zero with
      | None -> node.zero <- Some (make_node ())
      | Some _ -> ());
      match node.zero with
      | Some child -> go child (i + 1)
      | None -> assert false
    end
  in
  go t 0

(* The walk runs on an immediate int — an [int32] address would be
   boxed at every call — and is a top-level function, so no closure over
   the address is allocated per lookup. *)
let rec walk addr node i best =
  let best = match node.value with Some _ as v -> v | None -> best in
  if i = 32 then best
  else
    let child = if (addr lsr (31 - i)) land 1 = 1 then node.one else node.zero in
    match child with None -> best | Some c -> walk addr c (i + 1) best

let lookup_int t addr = walk addr t 0 None

let lookup t addr = lookup_int t (Int32.to_int addr land 0xffff_ffff)
