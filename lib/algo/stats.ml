(* The running sum lives in its own all-float record, which OCaml
   stores flat: as a mutable float field of [t] every [add] would box a
   fresh float. *)
type sums = { mutable sum : float }

type t = {
  mutable samples : float array;
  mutable size : int;
  sums : sums;
  mutable sorted : bool;
}

let create () =
  { samples = [||]; size = 0; sums = { sum = 0.0 }; sorted = true }

let add t x =
  if t.size = Array.length t.samples then begin
    let capacity = max 64 (2 * Array.length t.samples) in
    let bigger = Array.make capacity 0.0 in
    Array.blit t.samples 0 bigger 0 t.size;
    t.samples <- bigger
  end;
  t.samples.(t.size) <- x;
  t.size <- t.size + 1;
  t.sums.sum <- t.sums.sum +. x;
  t.sorted <- false

let count t = t.size

let mean t = if t.size = 0 then 0.0 else t.sums.sum /. float_of_int t.size

let require_nonempty t name = if t.size = 0 then invalid_arg ("Stats." ^ name ^ ": empty")

let ensure_sorted t =
  if not t.sorted then begin
    let live = Array.sub t.samples 0 t.size in
    Array.sort compare live;
    Array.blit live 0 t.samples 0 t.size;
    t.sorted <- true
  end

let percentile t p =
  require_nonempty t "percentile";
  if not (p >= 0.0 && p <= 100.0) then invalid_arg "Stats.percentile: p out of [0,100]";
  ensure_sorted t;
  let rank = int_of_float (ceil (p /. 100.0 *. float_of_int t.size)) in
  let idx = if rank <= 0 then 0 else min (t.size - 1) (rank - 1) in
  t.samples.(idx)
