-- One statement per extractor diagnostic, plus clean repeats that reach
-- the support threshold.
SELECT o_id FROM orders WHERE o_cust = 1 AND o_date > DATE '2020-01-01';
SELECT o_id FROM orders WHERE o_cust = 2 AND o_date > DATE '2021-01-01';
SELECT c_name FROM cust c JOIN orders o ON c.c_id = o.o_cust
 WHERE c.c_region = 3 AND note = 'ambiguous';
SELECT c_name FROM cust WHERE c_region = 4 AND zzz = 1;
SELECT o_id FROM orders WHERE q.o_cust = 5;
SELECT o_id FROM orders o WHERE o.o_cust = 6 AND o.missing = 1;
SELECT d.total FROM (SELECT o_cust, o_total AS total FROM orders
 WHERE o_total > 10) d WHERE d.total > 5;
SELECT c_name FROM cust x JOIN orders x ON x.c_id = 1 WHERE x.c_region = 2;
SELECT c_name FROM ghost g, cust WHERE c_region = 1 AND g.x = 2;
SELECT FROM WHERE;
MERGE INTO orders USING cust ON 1 = 1;
SELECT r_name FROM region WHERE r_id = 1;
SELECT r_name FROM region r WHERE r.r_id = 2 ORDER BY r_name;
UPDATE orders SET o_total = 0 WHERE o_cust = 7 AND o_date < DATE '2019-01-01';
DELETE FROM cust WHERE c_region = 9;
INSERT INTO orders VALUES (1, 2, DATE '2020-01-01', 3, 'n');
SELECT c_region, COUNT(*) FROM cust GROUP BY c_region HAVING COUNT(*) > 1;
