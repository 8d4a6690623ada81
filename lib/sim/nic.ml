let line_rate_bps = 10e9

let framing_overhead_bytes = 20

let max_mpps ~frame_bytes =
  if frame_bytes <= 0 then invalid_arg "Nic.max_mpps: frame size must be positive";
  line_rate_bps /. (float_of_int (frame_bytes + framing_overhead_bytes) *. 8.0) /. 1e6
