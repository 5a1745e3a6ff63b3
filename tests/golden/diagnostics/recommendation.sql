CREATE INDEX idx_orders_o_cust_o_date ON orders (o_cust, o_date);
CREATE INDEX idx_cust_c_region_c_id ON cust (c_region, c_id);
CREATE INDEX idx_region_r_id ON region (r_id);
