open Nfp_nf
open Nfp_policy

type position = { nf : string; place : Rule.place }

type pair = {
  earlier : string;
  later : string;
  source : [ `Order | `Priority ];
  parallelizable : bool;
  conflicting_actions : (Action.t * Action.t) list;
}

type t = {
  positions : position list;
  pairs : pair list;
  free : string list;
  profile_of : string -> Action.t list;
}

(* Orange conflicts even when a gray pair exists: Priority rules force
   parallelism, so copying requirements must still be collected. *)
let forced_conflicts ?field_sensitive_write_read p1 p2 =
  let conflicts = ref [] in
  List.iter
    (fun a1 ->
      List.iter
        (fun a2 ->
          match Dependency.action_pair ?field_sensitive_write_read a1 a2 with
          | Dependency.Parallel_with_copy -> conflicts := (a1, a2) :: !conflicts
          | Dependency.Parallel_no_copy | Dependency.Not_parallelizable -> ())
        p2)
    p1;
  List.rev !conflicts

let transform ?field_sensitive_write_read (policy : Rule.policy) =
  let resolve name =
    let kind =
      match List.assoc_opt name policy.bindings with Some k -> Some k | None -> Some name
    in
    match kind with
    | Some k -> ( match Registry.find k with Some e -> Some e.profile | None -> None)
    | None -> None
  in
  let missing =
    List.filter (fun n -> resolve n = None) (Rule.nfs_of_rules policy.rules)
  in
  match missing with
  | n :: _ -> Error (Printf.sprintf "NF %S resolves to no registered profile" n)
  | [] ->
      let profile_of name =
        match resolve name with Some p -> p | None -> raise Not_found
      in
      let positions =
        List.filter_map
          (function Rule.Position (nf, place) -> Some { nf; place } | _ -> None)
          policy.rules
      in
      let pairs =
        List.filter_map
          (function
            | Rule.Order (a, b) ->
                let r =
                  Parallelism.analyze ?field_sensitive_write_read (profile_of a)
                    (profile_of b)
                in
                Some
                  {
                    earlier = a;
                    later = b;
                    source = `Order;
                    parallelizable = r.Parallelism.parallelizable;
                    conflicting_actions = r.Parallelism.conflicting_actions;
                  }
            | Rule.Priority (hi, lo) ->
                Some
                  {
                    earlier = lo;
                    later = hi;
                    source = `Priority;
                    parallelizable = true;
                    conflicting_actions =
                      forced_conflicts ?field_sensitive_write_read (profile_of lo)
                        (profile_of hi);
                  }
            | Rule.Position _ | Rule.Admit _ -> None)
          policy.rules
      in
      let mentioned = Rule.nfs_of_rules policy.rules in
      let free =
        List.filter_map
          (fun (name, _) -> if List.mem name mentioned then None else Some name)
          policy.bindings
      in
      Ok { positions; pairs; free; profile_of }
