(* Span recorder for the traced run.

   Every wrapped boundary opens a span: a name, start and end on the
   host's monotonic clock, the enclosing span, and the packet id shared
   by all spans of one packet (-1 for spans that belong to no packet,
   such as the root). Counts, total time and self time (duration minus
   the time covered by direct children) are aggregated per name for
   every call. Full span records are kept only for sampled packet ids,
   in arrays allocated up front, so memory stays bounded however long
   the run. Times are integer nanoseconds, so self times sum exactly to
   the root span's duration. *)

(* bechamel.monotonic_clock's CLOCK_MONOTONIC stub, declared unboxed so
   reading the clock never allocates. *)
external clock_ns : unit -> (int64[@unboxed])
  = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
  [@@noalloc]

let now_ns () = Int64.to_int (clock_ns ())

let max_names = 64
let max_depth = 32

type t = {
  names : string array;
  mutable n_names : int;
  count : int array;
  total : int array;
  self : int array;
  (* Open spans, innermost at [depth - 1]. *)
  st_name : int array;
  st_start : int array;
  st_child : int array;
  st_span : int array;
  mutable depth : int;
  (* Sampled span records. *)
  sample_every : int;
  sp_name : int array;
  sp_start : int array;
  sp_end : int array;
  sp_parent : int array;
  sp_pid : int array;
  mutable n_spans : int;
  mutable unrecorded : int;  (* sampled spans that found the arrays full *)
}

let create ~capacity ~sample_every =
  {
    names = Array.make max_names "";
    n_names = 0;
    count = Array.make max_names 0;
    total = Array.make max_names 0;
    self = Array.make max_names 0;
    st_name = Array.make max_depth 0;
    st_start = Array.make max_depth 0;
    st_child = Array.make max_depth 0;
    st_span = Array.make max_depth (-1);
    depth = 0;
    sample_every;
    sp_name = Array.make capacity 0;
    sp_start = Array.make capacity 0;
    sp_end = Array.make capacity 0;
    sp_parent = Array.make capacity 0;
    sp_pid = Array.make capacity 0;
    n_spans = 0;
    unrecorded = 0;
  }

(* Interns a span name; call while wiring the run, not per packet. *)
let name t s =
  let rec find i =
    if i = t.n_names then begin
      if i = max_names then invalid_arg "Trace.name: too many span names";
      t.names.(i) <- s;
      t.n_names <- i + 1;
      i
    end
    else if t.names.(i) = s then i
    else find (i + 1)
  in
  find 0

let enter t id pid =
  let d = t.depth in
  if d = max_depth then invalid_arg "Trace.enter: spans nested too deep";
  let span =
    if pid < 0 || pid mod t.sample_every = 0 then
      if t.n_spans < Array.length t.sp_name then begin
        let k = t.n_spans in
        t.n_spans <- k + 1;
        t.sp_name.(k) <- id;
        t.sp_pid.(k) <- pid;
        t.sp_parent.(k) <- (if d = 0 then -1 else t.st_span.(d - 1));
        k
      end
      else begin
        t.unrecorded <- t.unrecorded + 1;
        -1
      end
    else -1
  in
  t.st_name.(d) <- id;
  t.st_child.(d) <- 0;
  t.st_span.(d) <- span;
  t.depth <- d + 1;
  let start = now_ns () in
  t.st_start.(d) <- start;
  if span >= 0 then t.sp_start.(span) <- start

let leave t =
  let stop = now_ns () in
  let d = t.depth - 1 in
  t.depth <- d;
  let id = t.st_name.(d) in
  let dur = stop - t.st_start.(d) in
  t.count.(id) <- t.count.(id) + 1;
  t.total.(id) <- t.total.(id) + dur;
  t.self.(id) <- t.self.(id) + dur - t.st_child.(d);
  if d > 0 then t.st_child.(d - 1) <- t.st_child.(d - 1) + dur;
  let span = t.st_span.(d) in
  if span >= 0 then t.sp_end.(span) <- stop

let span t id pid f x =
  enter t id pid;
  match f x with
  | v ->
      leave t;
      v
  | exception e ->
      leave t;
      raise e

let count t id = t.count.(id)
let total_ns t id = t.total.(id)
let self_ns t id = t.self.(id)
let names t = List.init t.n_names (fun i -> (i, t.names.(i)))

(* Sum of self times over every name: equals the total of the
   outermost spans by construction. *)
let self_sum_ns t =
  let s = ref 0 in
  for i = 0 to t.n_names - 1 do
    s := !s + t.self.(i)
  done;
  !s

(* Chrome trace-event JSON ("X" complete events, microseconds), which
   Perfetto-style viewers open directly. *)
let write t path =
  let oc = open_out path in
  let t0 = if t.n_spans > 0 then t.sp_start.(0) else 0 in
  output_string oc "{\"traceEvents\":[\n";
  for k = 0 to t.n_spans - 1 do
    Printf.fprintf oc
      "%s{\"name\":%S,\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,\"args\":{\"span\":%d,\"parent\":%d,\"packet\":%d}}\n"
      (if k = 0 then "" else ",")
      t.names.(t.sp_name.(k))
      (float_of_int (t.sp_start.(k) - t0) /. 1000.0)
      (float_of_int (t.sp_end.(k) - t.sp_start.(k)) /. 1000.0)
      k t.sp_parent.(k) t.sp_pid.(k)
  done;
  Printf.fprintf oc "],\"unrecorded\":%d}\n" t.unrecorded;
  close_out oc
