(* Classic Aho–Corasick compiled to a flat DFA over byte classes, behind
   a Wu–Manber block-shift filter.

   Bytes that occur in no pattern all behave alike, so the alphabet is
   first folded into classes: one per byte that some pattern uses, plus
   one shared by every other byte. The goto trie, the BFS failure links
   and the completed transition function all live in one [int array]
   with a row of [nclasses] entries per state, which for the IDS's 100
   signatures (26 letters) is 27 entries instead of 256.

   Each entry holds its target's row offset (state index times
   [nclasses]), so a step is one add and one load. A target that
   accepts is stored as [lnot row], a negative number: [matches] stops
   at the first negative entry and [scan] reads that state's outputs
   and resumes from [lnot d]. The root is row 0 and never accepts
   (empty patterns are dropped).

   The filter slides a window of [minlen] bytes (the shortest pattern's
   length) over the text. [shift] maps the window's last two bytes, read
   as one native-order 16-bit value, to how far the window may move
   without stepping over the start of an occurrence: [minlen - 1] for a
   block no pattern has among its first [minlen] bytes, [minlen - 1 - j]
   for a block ending at offset [j] of one, capped at 255. A zero shift
   means an occurrence may start at the window; the DFA then runs from
   the root there until it accepts or falls back to the root, and no
   occurrence can start at or before the byte that sent it back, so the
   filter resumes just past it. Every byte is stepped by the DFA at most
   once and every filter step moves the window on, so a scan stays
   linear in the range however the text is built. *)

type t = {
  cls : int array;  (* 256 entries: byte -> class *)
  nclasses : int;
  delta : int array;  (* nstates * nclasses; row offsets, negated when accepting *)
  outs : int list array;  (* per state: indices of patterns ending there *)
  minlen : int;  (* shortest pattern; 0 when there is none *)
  shift : Bytes.t;  (* 65536 entries when [minlen >= 2], else empty *)
}

(* Classes in increasing byte order; class 0 is the shared class of the
   unused bytes when there are any. An [int] map, so 256 classes fit. *)
let classes patterns =
  let used = Array.make 256 false in
  List.iter (String.iter (fun c -> used.(Char.code c) <- true)) patterns;
  let shared = Array.exists not used in
  let cls = Array.make 256 0 in
  let next = ref (if shared then 1 else 0) in
  Array.iteri
    (fun b u ->
      if u then begin
        cls.(b) <- !next;
        incr next
      end)
    used;
  (cls, !next)

(* Entries are capped at 255, so a byte holds one. *)
let shift_table patterns minlen =
  let shift = Bytes.make 65536 (Char.chr (min 255 (minlen - 1))) in
  List.iter
    (fun p ->
      for j = 1 to minlen - 1 do
        let block = String.get_uint16_ne p (j - 1) in
        let s = minlen - 1 - j in
        if s < Char.code (Bytes.get shift block) then Bytes.set shift block (Char.chr s)
      done)
    patterns;
  shift

let build patterns =
  let patterns = List.filter (fun p -> String.length p > 0) patterns in
  let cls, nc = classes patterns in
  (* Growable goto table (-1 = undefined until completion), failure
     links and output lists, indexed by state. *)
  let go = ref (Array.make (16 * nc) (-1)) in
  let fail = ref (Array.make 16 0) in
  let out = ref (Array.make 16 []) in
  let nstates = ref 1 in
  let new_state () =
    let s = !nstates in
    if s >= Array.length !fail then begin
      let grow a fill =
        let bigger = Array.make (2 * Array.length a) fill in
        Array.blit a 0 bigger 0 (Array.length a);
        bigger
      in
      go := grow !go (-1);
      fail := grow !fail 0;
      out := grow !out []
    end;
    incr nstates;
    s
  in
  List.iteri
    (fun pat_idx pattern ->
      let s = ref 0 in
      String.iter
        (fun c ->
          let i = (!s * nc) + cls.(Char.code c) in
          if !go.(i) = -1 then begin
            let n = new_state () in
            !go.(i) <- n
          end;
          s := !go.(i))
        pattern;
      !out.(!s) <- pat_idx :: !out.(!s))
    patterns;
  let go = !go and fail = !fail and out = !out in
  (* Failure links by BFS; missing root transitions loop to the root. *)
  let queue = Queue.create () in
  for c = 0 to nc - 1 do
    let t = go.(c) in
    if t = -1 then go.(c) <- 0
    else begin
      fail.(t) <- 0;
      Queue.add t queue
    end
  done;
  while not (Queue.is_empty queue) do
    let s = Queue.pop queue in
    for c = 0 to nc - 1 do
      let t = go.((s * nc) + c) in
      if t <> -1 then begin
        let f = go.((fail.(s) * nc) + c) in
        fail.(t) <- f;
        out.(t) <- out.(t) @ out.(f);
        Queue.add t queue
      end
      else go.((s * nc) + c) <- go.((fail.(s) * nc) + c)
    done
  done;
  let n = !nstates in
  let delta =
    Array.init (n * nc) (fun i ->
        let t = go.(i) in
        if out.(t) = [] then t * nc else lnot (t * nc))
  in
  let minlen = List.fold_left (fun m p -> min m (String.length p)) max_int patterns in
  let minlen = if patterns = [] then 0 else minlen in
  let shift = if minlen >= 2 then shift_table patterns minlen else Bytes.empty in
  { cls; nclasses = nc; delta; outs = Array.sub out 0 n; minlen; shift }

let scan t text =
  let acc = ref [] in
  let row = ref 0 in
  String.iteri
    (fun i c ->
      let d = t.delta.(!row + t.cls.(Char.code c)) in
      if d >= 0 then row := d
      else begin
        row := lnot d;
        List.iter (fun pat -> acc := (pat, i + 1) :: !acc) t.outs.(!row / t.nclasses)
      end)
    text;
  List.rev !acc

(* The scan loops take the tables as arguments rather than reading them
   through [t] on every step. Indices stay in bounds by construction:
   [cls] has 256 entries, every [delta] entry is a row offset, a row
   plus a class is inside [delta], [shift] has an entry for every 16-bit
   value, and the caller checked [pos, stop) against [buf]. *)

(* [%caml_bytes_get16u] is the stdlib's unchecked native-order read,
   the order [String.get_uint16_ne] keys [shift] by. *)
external get16 : bytes -> int -> int = "%caml_bytes_get16u"

(* The DFA from the root at [i]: [-1] when it accepts, else the index
   just past the byte that brought it back to the root, or [stop]. *)
let rec dfa delta cls buf i stop row =
  if i >= stop then stop
  else
    let d =
      Array.unsafe_get delta (row + Array.unsafe_get cls (Char.code (Bytes.unsafe_get buf i)))
    in
    if d < 0 then -1 else if d = 0 then i + 1 else dfa delta cls buf (i + 1) stop d

(* Without a filter (a pattern shorter than a block): the DFA end to
   end, re-entered at the root wherever it fell back there. *)
let rec plain delta cls buf i stop =
  if i >= stop then false
  else
    let r = dfa delta cls buf i stop 0 in
    r < 0 || plain delta cls buf r stop

(* [e] is the index of the window's last byte: the window is
   [e - minlen + 1, e]. [top] is the largest shift, and a window that
   takes it moves by the constant [top], not by the loaded value: the
   next block's address then waits on a predicted branch rather than on
   this load, so on text where most windows take it (IDS payloads)
   the CPU runs several steps ahead. *)
let rec skip shift delta cls buf e stop minlen top =
  if e >= stop then false
  else
    let s = Char.code (Bytes.unsafe_get shift (get16 buf (e - 1))) in
    if s = top then skip shift delta cls buf (e + top) stop minlen top
    else if s > 0 then skip shift delta cls buf (e + s) stop minlen top
    else
      let r = dfa delta cls buf (e - minlen + 1) stop 0 in
      r < 0 || skip shift delta cls buf (r + minlen - 1) stop minlen top

let matches_bytes t buf ~pos ~len =
  if pos < 0 || len < 0 || pos > Bytes.length buf - len then
    invalid_arg "Aho_corasick.matches_bytes: range overruns buffer";
  if t.minlen < 2 then plain t.delta t.cls buf pos (pos + len)
  else
    skip t.shift t.delta t.cls buf (pos + t.minlen - 1) (pos + len) t.minlen
      (min 255 (t.minlen - 1))

let matches t text =
  matches_bytes t (Bytes.unsafe_of_string text) ~pos:0 ~len:(String.length text)
