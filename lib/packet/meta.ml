let mid_bits = 20
let pid_bits = 40
let version_bits = 4

let max_mid = (1 lsl mid_bits) - 1
let max_pid = Int64.sub (Int64.shift_left 1L pid_bits) 1L
let max_version = (1 lsl version_bits) - 1

let check_version who version =
  if version < 0 || version > max_version then
    invalid_arg (who ^ ": version out of 4-bit range")

let check ~mid ~pid ~version =
  if mid < 0 || mid > max_mid then invalid_arg "Packet.stamp: mid out of 20-bit range";
  if Int64.compare pid 0L < 0 || Int64.compare pid max_pid > 0 then
    invalid_arg "Packet.stamp: pid out of 40-bit range";
  check_version "Packet.stamp" version
