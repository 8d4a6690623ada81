(* Classic Aho–Corasick compiled to a flat DFA over byte classes.

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
   (empty patterns are dropped). *)

type t = {
  cls : int array;  (* 256 entries: byte -> class *)
  nclasses : int;
  delta : int array;  (* nstates * nclasses; row offsets, negated when accepting *)
  outs : int list array;  (* per state: indices of patterns ending there *)
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
  { cls; nclasses = nc; delta; outs = Array.sub out 0 n }

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

(* The per-byte loop takes the table and the class map as arguments
   rather than reading them through [t] on every step. Indices stay in
   bounds by construction: [cls] has 256 entries, every [delta] entry
   is a row offset, a row plus a class is inside [delta], and the
   caller checked [pos, stop) against [buf]. *)
let rec run delta cls buf i stop row =
  if i >= stop then false
  else
    let d =
      Array.unsafe_get delta (row + Array.unsafe_get cls (Char.code (Bytes.unsafe_get buf i)))
    in
    if d < 0 then true else run delta cls buf (i + 1) stop d

let matches_bytes t buf ~pos ~len =
  if pos < 0 || len < 0 || pos > Bytes.length buf - len then
    invalid_arg "Aho_corasick.matches_bytes: range overruns buffer";
  run t.delta t.cls buf pos (pos + len) 0

let matches t text =
  matches_bytes t (Bytes.unsafe_of_string text) ~pos:0 ~len:(String.length text)
