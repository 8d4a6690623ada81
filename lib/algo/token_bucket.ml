type t = {
  rate_bytes_per_ns : float;
  burst : float;
  mutable tokens : float;
  mutable last_ns : int64;
}

let create ~rate_bps ~burst_bytes =
  if rate_bps <= 0.0 then invalid_arg "Token_bucket: rate must be positive";
  if burst_bytes <= 0 then invalid_arg "Token_bucket: burst must be positive";
  {
    rate_bytes_per_ns = rate_bps /. 8.0 /. 1e9;
    burst = float_of_int burst_bytes;
    tokens = float_of_int burst_bytes;
    last_ns = 0L;
  }

let refill t ~now_ns =
  let dt = Int64.to_float (Int64.sub now_ns t.last_ns) in
  if dt > 0.0 then begin
    t.tokens <- Float.min t.burst (t.tokens +. (dt *. t.rate_bytes_per_ns));
    t.last_ns <- now_ns
  end

let admit t ~now_ns ~size =
  refill t ~now_ns;
  let need = float_of_int size in
  if t.tokens >= need then begin
    t.tokens <- t.tokens -. need;
    true
  end
  else false

let snapshot t = (t.tokens, t.last_ns)

let restore t (tokens, last_ns) =
  t.tokens <- tokens;
  t.last_ns <- last_ns
